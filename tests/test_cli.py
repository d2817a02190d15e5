"""Command-line driver: config files, CSV output, exit codes."""

import math
import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import ghostfringe
from ghostfringe import _g17, cli
from ghostfringe.analytic import CorrelationPattern
from ghostfringe.cli import ConfigError, RunReport, emit, main, parse_config
from ghostfringe.gate import BASIS_LABELS, TruthTable, ideal_cnot_table
from ghostfringe.geometry import GateAngles, SetupBasic, SetupGate, SetupMZ
from ghostfringe.montecarlo import MIN_EMITTERS, MIN_REALIZATIONS
from ghostfringe.patterns import SCAN_AXES, evaluate_pattern, make_grid

BASIC_SETUP = """\
[setup]
a = 0.5e-3
lambda = 500e-9
z = 1.0
f = 1.0
x1 = -5e-3
x2 = 5e-3
"""

MZ_SETUP = """\
[setup]
kind = mz
a = 0.5e-3
lambda = 500e-9
z = 1.0
zbar = 0.2
delta_c = 0.0125
delta_t = 0.0125
"""

SCAN_SMALL = """\
[scan]
axis = x_C
start = 0.0
stop = 5e-5
step = 5e-6
"""

MC_SMALL = """\
[mc]
n_realizations = 300
n_emitters = 64
seed = 1
"""


def write_config(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def read_csv(path):
    """(preamble dict, header, data rows) of an output file."""
    preamble = {}
    header = None
    rows = []
    for line in path.read_text().splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            preamble[key] = value
        elif header is None:
            header = line
        else:
            rows.append(line.split(","))
    return preamble, header, rows


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------


def test_minimal_config_applies_defaults(tmp_path):
    config = parse_config(write_config(tmp_path, BASIC_SETUP))
    assert config.kind == "basic"
    assert isinstance(config.setup, SetupBasic)
    assert not isinstance(config.setup, SetupGate)
    assert config.setup.x1p == config.setup.x1
    assert config.setup.x2p == config.setup.x2
    assert config.angles is None
    assert config.axis == "diagonal"
    assert config.start == -2e-4
    assert config.stop == 2e-4
    assert config.step == 5e-6
    assert config.detector_x == 0.0
    assert config.mode == "exact"
    assert config.n_realizations == 10000
    assert config.n_emitters == 256
    assert config.seed == 0


def test_gate_config_defaults_angles_to_zero(tmp_path):
    text = BASIC_SETUP.replace("[setup]", "[setup]\nkind = gate")
    config = parse_config(write_config(tmp_path, text))
    assert isinstance(config.setup, SetupGate)
    assert config.angles is not None
    assert config.angles.phi_c == 0.0


def test_mz_config(tmp_path):
    text = MZ_SETUP + "\n[angles]\nphi_c = 0.785398\n"
    config = parse_config(write_config(tmp_path, text))
    assert isinstance(config.setup, SetupMZ)
    assert config.setup.delta_c == 0.0125
    assert config.angles.phi_c == pytest.approx(0.785398)
    assert config.angles.theta_t == 0.0


def test_missing_file_is_config_error(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        parse_config(tmp_path / "nope.ini")


def test_missing_setup_section(tmp_path):
    with pytest.raises(ConfigError, match=r"missing required section \[setup\]"):
        parse_config(write_config(tmp_path, "[scan]\naxis = x_C\n"))


def test_missing_required_key_names_it(tmp_path):
    text = BASIC_SETUP.replace("f = 1.0\n", "")
    with pytest.raises(ConfigError, match="missing required key 'f'"):
        parse_config(write_config(tmp_path, text))


def test_missing_setup_keys_name_the_first_in_field_order(tmp_path):
    text = BASIC_SETUP.replace("a = 0.5e-3\n", "").replace("x1 = -5e-3\n", "")
    with pytest.raises(ConfigError, match=r"\[setup\] missing required key 'a' for kind=basic"):
        parse_config(write_config(tmp_path, text))


def test_non_finite_and_non_integer_values_rejected(tmp_path):
    text = BASIC_SETUP.replace("[setup]", "[setup]\nkind = gate") + "\n[angles]\nphi_c = nan\n"
    with pytest.raises(ConfigError, match=r"\[angles\] phi_c must be finite, got 'nan'"):
        parse_config(write_config(tmp_path, text))
    text = BASIC_SETUP + MC_SMALL.replace("seed = 1", "seed = 1.5")
    with pytest.raises(ConfigError, match=r"\[mc\] seed must be an integer, got '1.5'"):
        parse_config(write_config(tmp_path, text))


def test_readme_example_config_parses(tmp_path):
    """The README's example file, inline `;` comments included, is a valid config."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = re.search(r"```ini\n(.*?)```", readme, re.DOTALL).group(1)
    config = parse_config(write_config(tmp_path, block))
    assert config.kind == "basic"
    assert config.setup.wavelength == 500e-9
    assert config.setup.x2p == 5e-3
    assert (config.axis, config.detector_x, config.mode) == ("x_C", 0.0, "all")
    assert (config.n_realizations, config.n_emitters, config.seed) == (20000, 256, 0)


def test_default_section_is_an_unknown_section(tmp_path):
    """[DEFAULT] does not leak its keys into the other sections."""
    text = "[DEFAULT]\nmode = mc\n\n" + BASIC_SETUP
    with pytest.raises(ConfigError, match=r"^unknown section \[DEFAULT\]$"):
        parse_config(write_config(tmp_path, text))


def test_negative_length_error_names_field(tmp_path):
    text = BASIC_SETUP.replace("z = 1.0", "z = -1.0")
    with pytest.raises(ConfigError, match=r"\[setup\] z must be positive, got z=-1.0"):
        parse_config(write_config(tmp_path, text))


def test_non_numeric_value_rejected(tmp_path):
    text = BASIC_SETUP.replace("a = 0.5e-3", "a = wide")
    with pytest.raises(ConfigError, match=r"\[setup\] a must be a number, got 'wide'"):
        parse_config(write_config(tmp_path, text))


def test_unknown_key_suggests_correction(tmp_path):
    text = BASIC_SETUP + "\n[scan]\ndetecter_x = 0.0\n"
    with pytest.raises(ConfigError, match="did you mean 'detector_x'"):
        parse_config(write_config(tmp_path, text))


def test_unknown_section_suggests_correction(tmp_path):
    text = BASIC_SETUP + "\n[scans]\naxis = x_C\n"
    with pytest.raises(ConfigError, match=r"did you mean \[scan\]"):
        parse_config(write_config(tmp_path, text))


def test_angles_rejected_for_basic(tmp_path):
    text = BASIC_SETUP + "\n[angles]\nphi_c = 0.1\n"
    with pytest.raises(ConfigError, match="only applies to gate and mz"):
        parse_config(write_config(tmp_path, text))


def test_mz_keys_rejected_for_basic(tmp_path):
    text = BASIC_SETUP + "zbar = 0.2\n"
    with pytest.raises(ConfigError, match="unknown key 'zbar'"):
        parse_config(write_config(tmp_path, text))


def test_bad_mode_and_axis(tmp_path):
    text = BASIC_SETUP + "\n[run]\nmode = quick\n"
    with pytest.raises(ConfigError, match=r"\[run\] mode must be one of"):
        parse_config(write_config(tmp_path, text))
    text = BASIC_SETUP + "\n[scan]\naxis = x_D\n"
    with pytest.raises(ConfigError, match=r"\[scan\] axis must be one of"):
        parse_config(write_config(tmp_path, text))


def test_scan_bounds_validation(tmp_path):
    text = BASIC_SETUP + "\n[scan]\nstep = -1e-6\n"
    with pytest.raises(ConfigError, match="step must be positive"):
        parse_config(write_config(tmp_path, text))
    text = BASIC_SETUP + "\n[scan]\nstart = 1.0\nstop = 0.0\n"
    with pytest.raises(ConfigError, match="below start"):
        parse_config(write_config(tmp_path, text))


def test_ensemble_size_checked_at_parse_time(tmp_path):
    text = BASIC_SETUP + MC_SMALL.replace("n_realizations = 300", "n_realizations = 50")
    with pytest.raises(ConfigError, match=r"\[mc\] n_realizations must be at least 100"):
        parse_config(write_config(tmp_path, text))
    text = BASIC_SETUP + MC_SMALL.replace("n_emitters = 64", "n_emitters = 32")
    with pytest.raises(ConfigError, match=r"\[mc\] n_emitters must be at least 64"):
        parse_config(write_config(tmp_path, text))


# ---------------------------------------------------------------------------
# scan subcommand
# ---------------------------------------------------------------------------


def test_scan_writes_pattern_with_preamble(tmp_path, capsys):
    config = write_config(tmp_path, BASIC_SETUP + SCAN_SMALL)
    out = tmp_path / "out"
    assert main(["scan", "--config", config, "--out", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("wrote")
    assert [line.split(":")[0] for line in lines[1:]] == ["exact", "emit"]
    assert re.fullmatch(r"emit: \d+\.\d{3} s", lines[-1])
    preamble, header, rows = read_csv(out / "scan_exact.csv")
    assert preamble["kind"] == "basic"
    assert preamble["pattern_mode"] == "exact"
    assert preamble["x1p"] == "-0.005"
    assert header == "x_C,x_T,value"
    assert len(rows) == 11
    assert float(rows[0][1]) == 0.0  # detector T parked at detector_x


def test_scan_values_round_trip_exactly(tmp_path):
    config_path = write_config(tmp_path, BASIC_SETUP + SCAN_SMALL)
    out = tmp_path / "out"
    main(["scan", "--config", config_path, "--out", str(out)])
    _, _, rows = read_csv(out / "scan_exact.csv")
    config = parse_config(config_path)
    grid = make_grid(config.axis, config.start, config.stop, config.step, config.detector_x)
    pattern = evaluate_pattern(config.setup, grid, "exact")
    for row, (x_c, x_t), value in zip(rows, grid, pattern.values):
        assert float(row[0]) == x_c
        assert float(row[1]) == x_t
        assert float(row[2]) == value


def test_scan_mode_all_writes_four_files(tmp_path):
    config = write_config(
        tmp_path, BASIC_SETUP + SCAN_SMALL + MC_SMALL + "\n[run]\nmode = all\n"
    )
    out = tmp_path / "out"
    assert main(["scan", "--config", config, "--out", str(out)]) == 0
    names = sorted(p.name for p in out.iterdir())
    assert names == [
        "scan_asymptotic.csv", "scan_compare.csv", "scan_exact.csv", "scan_mc.csv",
    ]
    preamble, header, rows = read_csv(out / "scan_mc.csv")
    assert header == "x_C,x_T,value,stderr"
    assert all(float(r[3]) >= 0.0 for r in rows)
    _, header, rows = read_csv(out / "scan_compare.csv")
    assert header == "pair,nrmse,pearson,max_sigma_dev"
    assert {r[0] for r in rows} == {"exact_vs_mc", "asymptotic_vs_mc", "exact_vs_asymptotic"}


ANGLES = """\
[angles]
phi_c = 0.785398
theta_t = 7.0
"""

# The sections of every key a preamble may hold, written down here rather
# than taken from the package, so the test checks the file format itself.
FILE_SECTIONS = {
    "setup": ("kind", "a", "lambda", "z", "f", "x1", "x2", "x1p", "x2p",
              "zbar", "delta_c", "delta_t"),
    "angles": ("phi_c", "phi_t", "theta_c", "theta_t"),
    "scan": ("axis", "start", "stop", "step", "detector_x"),
    "run": ("mode",),
    "mc": ("n_realizations", "n_emitters", "seed"),
}


@pytest.mark.parametrize("setup", [
    BASIC_SETUP,
    BASIC_SETUP.replace("[setup]", "[setup]\nkind = gate") + ANGLES,
    MZ_SETUP + ANGLES,
], ids=["basic", "gate", "mz"])
def test_scan_output_is_reproducible_from_preamble(tmp_path, setup):
    """An output file carries enough configuration to reproduce itself."""
    config = write_config(tmp_path, setup + SCAN_SMALL + "[run]\nmode = mc\n" + MC_SMALL)
    first = tmp_path / "first"
    main(["scan", "--config", config, "--out", str(first)])
    preamble, _, _ = read_csv(first / "scan_mc.csv")
    assert preamble.pop("pattern_mode") == "monte-carlo"

    rebuilt = []
    for section, keys in FILE_SECTIONS.items():
        lines = [f"{key} = {preamble.pop(key)}" for key in keys if key in preamble]
        if lines:
            rebuilt += [f"[{section}]", *lines]
    assert preamble == {}
    rebuilt_path = write_config(tmp_path, "\n".join(rebuilt) + "\n", name="rebuilt.ini")
    assert parse_config(rebuilt_path) == parse_config(config)

    second = tmp_path / "second"
    main(["scan", "--config", rebuilt_path, "--out", str(second)])
    assert (first / "scan_mc.csv").read_bytes() == (second / "scan_mc.csv").read_bytes()


def test_scan_deterministic_across_threads(tmp_path):
    config = write_config(tmp_path, BASIC_SETUP + SCAN_SMALL + MC_SMALL)
    first = tmp_path / "first"
    main(["scan", "--config", config, "--mode", "mc", "--out", str(first)])
    second = tmp_path / "second"
    main(["scan", "--config", config, "--mode", "mc", "--out", str(second)])
    assert (first / "scan_mc.csv").read_bytes() == (second / "scan_mc.csv").read_bytes()


def per_cell_csv(head, rows):
    """Oracle: the head lines, then every cell formatted on its own with format(v, ".17g")."""
    lines = list(head)
    for row in rows:
        lines.append(",".join(c if isinstance(c, str) else format(c, ".17g") for c in row))
    return "\n".join(lines) + "\n"


def preamble_lines(config):
    return [
        f"# {key}={value!r}" if isinstance(value, float) else f"# {key}={value}"
        for key, value in config.preamble_items()
    ]


def assert_cells_round_trip(path, expected, first_column=0):
    """float() of every data cell gives back the exact bits of the expected array."""
    _, _, rows = read_csv(path)
    cells = np.array([[float(c) for c in row[first_column:]] for row in rows])
    expected = np.asarray(expected, dtype=float)
    assert cells.shape == expected.shape
    assert np.array_equal(cells.view(np.uint64), expected.view(np.uint64))


def make_report(config, patterns, comparisons=None):
    return RunReport(
        config=config, patterns=patterns, comparisons=comparisons or {}, problems=[], timings={},
    )


def test_emit_matches_per_cell_formatting(tmp_path):
    config = parse_config(write_config(tmp_path, BASIC_SETUP))
    grid = np.array([[-0.0, -math.inf], [math.inf, 5e-324], [1e308, -1e-300], [0.1, 1.0 / 3.0]])
    values = np.array([math.nan, math.inf, 5e-324, 1e308])
    stderr = np.array([-0.0, math.nan, 1e308, 2.5e-17])
    patterns = {
        "exact": CorrelationPattern(grid, values, "exact"),
        "mc": CorrelationPattern(grid, values[::-1], "monte-carlo", stderr=stderr),
    }
    comparisons = {
        "exact_vs_mc": {"nrmse": -0.0, "pearson": math.nan, "max_sigma_dev": math.inf},
        "exact_vs_asymptotic": {"nrmse": 5e-324, "pearson": -math.inf, "max_sigma_dev": 1e308},
    }
    out = tmp_path / "out"
    written = emit(make_report(config, patterns, comparisons), out)
    assert written == [out / "scan_exact.csv", out / "scan_mc.csv", out / "scan_compare.csv"]
    head = preamble_lines(config)

    exact_table = np.column_stack([grid, values])
    assert (out / "scan_exact.csv").read_text() == per_cell_csv(
        head + ["# pattern_mode=exact", "x_C,x_T,value"], exact_table.tolist()
    )
    assert_cells_round_trip(out / "scan_exact.csv", exact_table)

    mc_table = np.column_stack([grid, values[::-1], stderr])
    assert (out / "scan_mc.csv").read_text() == per_cell_csv(
        head + ["# pattern_mode=monte-carlo", "x_C,x_T,value,stderr"], mc_table.tolist()
    )
    assert_cells_round_trip(out / "scan_mc.csv", mc_table)

    compare_rows = [[pair, *metrics.values()] for pair, metrics in comparisons.items()]
    assert (out / "scan_compare.csv").read_text() == per_cell_csv(
        head + ["pair,nrmse,pearson,max_sigma_dev"], compare_rows
    )
    assert_cells_round_trip(
        out / "scan_compare.csv", [row[1:] for row in compare_rows], first_column=1
    )


def repeated_column_grid(case):
    """Grids whose x_T column repeats x_C bit for bit, or all but the sign of zero."""
    if case == "signed-zero":
        x_c = np.array([0.0, -0.0, 1e-5, 0.0, -0.0, -2e-5])
        x_t = x_c.copy()
        x_t[x_c == 0.0] *= -1.0
        return np.column_stack([x_c, x_t])
    x = np.linspace(-2e-4, 2e-4, 2 * cli._ROWS_PER_BLOCK + 3 if case == "long" else 9)
    return np.column_stack([x, x])


@pytest.mark.parametrize("case", ["diagonal", "signed-zero", "long"])
def test_emit_repeated_columns_match_per_cell_formatting(tmp_path, case):
    config = parse_config(write_config(tmp_path, BASIC_SETUP))
    grid = repeated_column_grid(case)
    values = 1.0 + np.cos(grid[:, 0] * 1e4)
    values[::2] = np.abs(grid[::2, 1])
    magnitude = np.abs(grid[:, 1])
    patterns = {
        "exact": CorrelationPattern(grid, values, "exact"),
        "mc": CorrelationPattern(grid, magnitude, "monte-carlo", stderr=magnitude.copy()),
    }
    out = tmp_path / "out"
    emit(make_report(config, patterns), out)
    head = preamble_lines(config)
    for mode, table, header in (
        ("exact", np.column_stack([grid, values]), "x_C,x_T,value"),
        ("mc", np.column_stack([grid, magnitude, magnitude]), "x_C,x_T,value,stderr"),
    ):
        expected = per_cell_csv(head + [f"# pattern_mode={patterns[mode].mode}", header],
                                table.tolist())
        assert (out / f"scan_{mode}.csv").read_bytes() == expected.encode()


def kernel_text(values, columns=1):
    """The numpy kernel's CSV text for values laid out in rows of `columns` cells."""
    block = np.asarray(values, dtype=float).reshape(-1, columns)
    cells = _g17.Cells(len(block), list(range(columns)))
    return _g17.format_block(block, cells).tobytes().decode("ascii")


def per_cell_text(values, columns=1):
    return per_cell_csv([], np.asarray(values, dtype=float).reshape(-1, columns).tolist())


# Cells of few significant digits, which random bit patterns almost never give:
# 4, 8, 12 and 16 trailing zeros of the 17 digits, and every layout's shortest body.
SHORT_CELLS = [4.0, 1.0, 0.5, 1e16, 123456789.0, 1234567890123.0, 12345.0, 1.5, 2.0, 1e-5,
               3e-6, 0.25, 0.001, 1e8, 1e12, 1234567890123456.0, 100.0, 7e15]
SHORT_BITS = [int(b) for b in np.array(SHORT_CELLS + [-v for v in SHORT_CELLS]).view(np.uint64)]
# Raw float64 bit patterns: every exponent, and the exponents of 2**-24 .. 2**60
# often, since only they reach the kernel's decades 1e-6 .. 1e17; and short cells.
KERNEL_EXPONENTS = st.integers(1023 - 24, 1023 + 60)
DOUBLE_BITS = st.one_of(
    st.integers(0, 2**64 - 1),
    st.builds(lambda sign, exponent, mantissa: sign << 63 | exponent << 52 | mantissa,
              st.integers(0, 1), KERNEL_EXPONENTS, st.integers(0, 2**52 - 1)),
    st.sampled_from(SHORT_BITS),
)


@given(st.lists(DOUBLE_BITS, min_size=1, max_size=60), st.integers(1, 4))
@example([0, 1 << 63, 1, 0x7FF0000000000000, 0xFFF0000000000000, 0x7FF8000000000000], 3)
@example(SHORT_BITS, 4)
def test_kernel_matches_format_on_any_double(bits, columns):
    values = np.array(bits + [0] * (-len(bits) % columns), dtype=np.uint64).view(float)
    assert kernel_text(values, columns) == per_cell_text(values, columns)


def test_kernel_matches_format_at_decade_boundaries():
    powers = [float(f"1e{k}") for k in range(-7, 18)]
    values = [v for p in powers for v in (np.nextafter(p, 0.0), p, np.nextafter(p, np.inf))]
    values += [-v for v in values]
    assert kernel_text(values) == per_cell_text(values)


def test_kernel_rounds_halfway_ties_to_even():
    """m * 2**(E - 17), m odd, lies halfway between two 17-digit decimals in decade E."""
    values = []
    for e in range(-6, 16):
        scale = 2.0 ** (e - 17)
        low = int(10.0**e / scale) + 1 | 1
        high = min(int(10.0 ** (e + 1) / scale), 2**53) - 1 | 1
        for m in (low, low + 2, (low + high) // 2 | 1, high - 2, high):
            value = m * scale
            assert 10.0**e <= value < 10.0 ** (e + 1)
            values += [value, -value]
    assert kernel_text(values) == per_cell_text(values)
    assert kernel_text([1000000000000000.25, 1000000000000000.75, -1000000000000000.25]) == \
        "1000000000000000.2\n1000000000000000.8\n-1000000000000000.2\n"


def test_kernel_writes_exponents_points_and_stripped_zeros():
    values = [1e-5, 2.5e-6, -3e-5, 1.25e-4, 0.5, -0.1, 10.0, 1234.5, 1e16, 12345678901234568.0]
    assert kernel_text(values) == (
        "1.0000000000000001e-05\n2.5000000000000002e-06\n-3.0000000000000001e-05\n"
        "0.000125\n0.5\n-0.10000000000000001\n10\n1234.5\n10000000000000000\n"
        "12345678901234568\n"
    )


@pytest.mark.parametrize("value", [4.0, 1.0, -0.5, 0.0, 1e-5, 12345678901234568.0])
def test_kernel_matches_format_on_a_constant_column(value):
    table = np.column_stack([np.linspace(-2e-4, 2e-4, 999), np.full(999, value)])
    assert kernel_text(table, columns=2) == per_cell_text(table, columns=2)


@pytest.mark.parametrize("extra", [-1, 0, 1])
def test_write_csv_matches_format_one_row_either_side_of_a_block_edge(tmp_path, extra):
    n = 2 * cli._ROWS_PER_BLOCK + extra
    rng = np.random.default_rng(n)
    x = np.linspace(-2e-4, 2e-4, n)
    values = rng.choice(SHORT_CELLS, n) * rng.choice([1.0, 3.0000000000000004], n)
    table = np.column_stack([x, x, values])
    path = tmp_path / "table.csv"
    cli._write_csv(path, ["x_C,x_T,value"], table)
    assert path.read_text() == per_cell_csv(["x_C,x_T,value"], table.tolist())


def test_emit_long_mixed_columns_match_per_cell_formatting(tmp_path):
    """Blocks large enough for the kernel, with every kind of cell it hands back to `%`."""
    config = parse_config(write_config(tmp_path, BASIC_SETUP))
    n = 2 * cli._ROWS_PER_BLOCK + 5
    rng = np.random.default_rng(5)
    special = [math.nan, math.inf, 5e-324, 2.2250738585072014e-308, 1e308, 1e-6,
               9.999999999999999e-7, 1e17, 99999999999999984.0, 0.0, -0.0]
    x_c = np.linspace(-2e-4, 2e-4, n)
    x_c[::97] = 0.0
    x_c[1::97] = -0.0
    x_c[2:2 + 2 * len(special):2] = special
    x_c[3:3 + 2 * len(special):2] = np.negative(special)
    x_t = x_c.copy()
    x_t[1::97] = 0.0  # repeats x_C but for the sign of some zeros
    values = np.abs(rng.standard_normal(n)) * 10.0 ** rng.integers(-9, 19, n)
    values[: len(special)] = special
    stderr = values[::-1].copy()
    grid = np.column_stack([x_c, x_t])
    patterns = {
        "exact": CorrelationPattern(grid, values, "exact"),
        "mc": CorrelationPattern(grid, values, "monte-carlo", stderr=stderr),
    }
    out = tmp_path / "out"
    emit(make_report(config, patterns), out)
    head = preamble_lines(config)
    for mode, table, header in (
        ("exact", np.column_stack([grid, values]), "x_C,x_T,value"),
        ("mc", np.column_stack([grid, values, stderr]), "x_C,x_T,value,stderr"),
    ):
        expected = per_cell_csv(head + [f"# pattern_mode={patterns[mode].mode}", header],
                                table.tolist())
        assert (out / f"scan_{mode}.csv").read_bytes() == expected.encode()


@pytest.mark.parametrize("cells", [cli._KERNEL_MIN_CELLS - 1, cli._KERNEL_MIN_CELLS + 1])
def test_write_csv_paths_agree_at_the_kernel_threshold(tmp_path, monkeypatch, cells):
    """The same cells, one below and one above the size that selects the kernel."""
    calls = []
    kernel = _g17.format_block
    monkeypatch.setattr(_g17, "format_block", lambda *args: calls.append(1) or kernel(*args))
    rng = np.random.default_rng(cells)
    values = rng.standard_normal(cells) * 10.0 ** rng.integers(-8, 18, cells)
    values[::7] *= -1.0
    values[::11] = 0.0
    path = tmp_path / "table.csv"
    cli._write_csv(path, ["value"], values[:, None])
    assert path.read_text() == per_cell_csv(["value"], values[:, None].tolist())
    assert len(calls) == (cells >= cli._KERNEL_MIN_CELLS)


def test_write_csv_memory_stays_flat_in_rows(tmp_path):
    def peak(n):
        x = np.linspace(-2e-4, 2e-4, n)
        table = np.column_stack([x, x, np.cos(x * 1e4)])
        tracemalloc.start()
        try:
            cli._write_csv(tmp_path / "table.csv", ["x_C,x_T,value"], table)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    short, long = 2 * cli._ROWS_PER_BLOCK, 16 * cli._ROWS_PER_BLOCK
    peak(short)
    assert peak(long) <= 1.25 * peak(short)


def test_write_csv_replaces_the_file_instead_of_rewriting_it(tmp_path):
    """A hard link to the old output keeps the old bytes; the path holds only the new ones."""
    path, link = tmp_path / "table.csv", tmp_path / "old.csv"
    long_table = np.column_stack([np.linspace(-2e-4, 2e-4, 50), np.arange(50.0)])
    cli._write_csv(path, ["x_C,value"], long_table)
    old = path.read_bytes()
    os.link(path, link)
    short_table = [[1e-5, 0.5], [-0.0, 2.0]]
    cli._write_csv(path, ["x_C,value"], short_table, labels=["a", "b"])
    assert link.read_bytes() == old
    assert path.read_text() == per_cell_csv(["x_C,value"], [["a", 1e-5, 0.5], ["b", -0.0, 2.0]])


def test_emit_on_empty_grid_writes_preamble_and_header(tmp_path):
    config = parse_config(write_config(tmp_path, BASIC_SETUP))
    grid = np.empty((0, 2))
    pattern = CorrelationPattern(grid, np.empty(0), "monte-carlo", stderr=np.empty(0))
    emit(make_report(config, {"mc": pattern}), tmp_path)
    head = preamble_lines(config) + ["# pattern_mode=monte-carlo", "x_C,x_T,value,stderr"]
    assert (tmp_path / "scan_mc.csv").read_text() == "\n".join(head) + "\n"


def test_truth_table_csv_matches_per_cell_formatting(tmp_path):
    config = parse_config(write_config(tmp_path, GATE_SETUP))
    values = ideal_cnot_table() / 3.0
    values[0, 1:] = [-0.0, math.nan, 5e-324]
    stderr = np.full((4, 4), 1e308)
    stderr[3] = [math.inf, -math.inf, 0.1, -1e-300]
    tables = {"exact": TruthTable(values[::-1]), "mc": TruthTable(values, stderr=stderr)}
    out = tmp_path / "out"
    written = emit(make_report(config, tables), out)
    assert written == [out / "truth_table_exact.csv", out / "truth_table_mc.csv",
                       out / "truth_table_mc_stderr.csv"]
    for path, which, data in zip(written, ("values", "values", "stderr"),
                                 (values[::-1], values, stderr)):
        head = preamble_lines(config) + [f"# table={which}", "input,HH,HV,VH,VV"]
        rows = [[label, *row] for label, row in zip(BASIS_LABELS, data.tolist())]
        assert path.read_text() == per_cell_csv(head, rows)
        assert_cells_round_trip(path, data, first_column=1)


def test_short_tables_load_neither_the_kernel_nor_difflib(tmp_path):
    """An 81-point scan and a truth table are too short for the `%.17g` kernel."""
    scan = write_config(tmp_path, BASIC_SETUP)
    table = write_config(tmp_path, GATE_SETUP, "gate.ini")
    code = (
        "import sys; from ghostfringe.cli import main; "
        f"main(['scan', '--config', {scan!r}, '--out', {str(tmp_path)!r}]); "
        f"main(['truth-table', '--config', {table!r}, '--out', {str(tmp_path)!r}]); "
        "print(sorted({'ghostfringe._g17', 'difflib'} & set(sys.modules)))"
    )
    src = str(Path(ghostfringe.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env=env, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "[]"


def test_python_m_ghostfringe_runs_the_cli():
    src = str(Path(ghostfringe.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    result = subprocess.run(
        [sys.executable, "-m", "ghostfringe", "--help"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("usage: ghostfringe")
    assert f"n_realizations (default 10000, at least {MIN_REALIZATIONS})" in result.stdout
    assert f"n_emitters (default 256, at least {MIN_EMITTERS})" in result.stdout
    # The file schema in the help is kept by hand: it must name every key the
    # parser accepts and every choice it offers.
    schema = result.stdout.split("configuration file sections and defaults:")[1]
    words = set(re.findall(r"\w+", schema))
    for kind in (SetupBasic, SetupMZ, GateAngles):
        for f in fields(kind):
            assert cli._FILE_KEYS.get(f.name, f.name) in words, f.name
    for key, choices in (("kind", cli._SETUP_CLASSES), ("axis", SCAN_AXES), ("mode", cli.MODES)):
        assert f"{key}={'|'.join(choices)} " in schema


def test_seed_override_changes_ensemble(tmp_path):
    config = write_config(tmp_path, BASIC_SETUP + SCAN_SMALL + MC_SMALL)
    first = tmp_path / "first"
    second = tmp_path / "second"
    main(["scan", "--config", config, "--mode", "mc", "--out", str(first)])
    main(["scan", "--config", config, "--mode", "mc", "--seed", "2", "--out", str(second)])
    assert (first / "scan_mc.csv").read_bytes() != (second / "scan_mc.csv").read_bytes()
    preamble, _, _ = read_csv(second / "scan_mc.csv")
    assert preamble["seed"] == "2"


def test_scan_reports_condition_problems(tmp_path, capsys):
    close = BASIC_SETUP.replace("x1 = -5e-3", "x1 = -5e-4").replace("x2 = 5e-3", "x2 = 5e-4")
    # Tilts of 2 and 1.2 l_coh; the x_C scan leaves detector_sep violated off centre only.
    small_tilts = """\
[setup]
kind = mz
a = 0.5e-3
lambda = 500e-9
z = 1.0
zbar = 0.2
delta_c = 2.5e-3
delta_t = 1.5e-3

[scan]
axis = x_C
start = -1e-4
stop = 1e-4
step = 2e-5
"""
    cases = (
        ("basic", close + SCAN_SMALL, ("cross_12p", "cross_21p")),
        ("mz", small_tilts, ("tilt_c", "tilt_t", "tilt_diff", "phase")),
    )
    for name, text, violated in cases:
        config = write_config(tmp_path, text + MC_SMALL, f"{name}.ini")
        out = tmp_path / name
        per_mode = {}
        for mode in ("exact", "asymptotic", "mc", "all"):
            assert main(["scan", "--config", config, "--mode", mode, "--out", str(out)]) == 0
            err = capsys.readouterr().err.splitlines()
            per_mode[mode] = [line for line in err if line.startswith("condition:")]
        lines = per_mode["asymptotic"]
        assert all(found == lines for found in per_mode.values()), per_mode
        for key in violated:
            assert sum(key in line for line in lines) == 1, (key, lines)
        assert main(["scan", "--config", config, "--out", str(out), "--strict-conditions"]) == 2
        capsys.readouterr()
    assert len(lines) == len(set(lines)), lines
    # detector_sep is violated only off centre; the worst ratio, |x_C| / l_coh = 0.2, is kept.
    assert [line for line in lines if "detector_sep" in line] == [
        "condition: detector_sep ratio 0.2 is above 0.1"
    ]


def test_config_error_prints_and_exits_one(tmp_path, capsys):
    bad = write_config(tmp_path, BASIC_SETUP.replace("z = 1.0", "z = -1.0"))
    assert main(["scan", "--config", bad]) == 1
    assert "z must be positive" in capsys.readouterr().err


def test_usage_error_exits_one(tmp_path, capsys):
    config = write_config(tmp_path, BASIC_SETUP)
    for argv in (
        ["scan"],  # missing --config
        [],  # no command
        ["bogus"],
        ["verify", "--config", config, "--out", "x"],  # verify writes nothing
        ["conditions", "--config", config, "--mode", "exact"],  # nor takes a mode
    ):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 1, argv
        assert "error:" in capsys.readouterr().err, argv


COMMAND_HELP = {
    "scan": "run the configured scan and write CSV patterns",
    "truth-table": "write the 4x4 basis joint-probability table",
    "verify": "compare the exact pattern against the ensemble",
    "conditions": "print condition margins for the configuration",
}


def test_help_lists_every_command_and_each_command_has_its_own(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--help"])
    assert excinfo.value.code == 0
    top = capsys.readouterr().out
    for command, summary in COMMAND_HELP.items():
        assert re.search(rf"^\s+{command}\s+{summary}$", top, re.MULTILINE), command
    for command in COMMAND_HELP:
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--help"])
        assert excinfo.value.code == 0
        usage = capsys.readouterr().out
        assert usage.startswith(f"usage: ghostfringe {command} [-h] --config CONFIG")
        writes = command in ("scan", "truth-table")
        assert ("--out OUT" in usage) == writes and ("--mode {exact," in usage) == writes
        assert "--seed SEED" in usage and "--strict-conditions" in usage


# ---------------------------------------------------------------------------
# truth-table subcommand
# ---------------------------------------------------------------------------


GATE_SETUP = BASIC_SETUP.replace("[setup]", "[setup]\nkind = gate")


def test_truth_table_exact_is_cnot_permutation(tmp_path):
    config = write_config(tmp_path, GATE_SETUP)
    out = tmp_path / "out"
    assert main(["truth-table", "--config", config, "--out", str(out)]) == 0
    preamble, header, rows = read_csv(out / "truth_table_exact.csv")
    assert preamble["table"] == "values"
    assert header == "input,HH,HV,VH,VV"
    labels = [r[0] for r in rows]
    assert labels == ["HH", "HV", "VH", "VV"]
    values = np.array([[float(v) for v in r[1:]] for r in rows])
    assert np.max(np.abs(values - ideal_cnot_table())) < 1e-9


def test_truth_table_writes_every_mode_through_one_emit(tmp_path, capsys, monkeypatch):
    config = write_config(tmp_path, GATE_SETUP + MC_SMALL)
    out = tmp_path / "out"
    calls = []

    def recorded(report, out_dir):
        written = emit(report, out_dir)
        calls.append((report, written))
        return written

    monkeypatch.setattr(cli, "emit", recorded)
    assert main(["truth-table", "--config", config, "--mode", "all", "--out", str(out)]) == 0
    [(report, written)] = calls
    names = ["truth_table_exact.csv", "truth_table_asymptotic.csv", "truth_table_mc.csv",
             "truth_table_mc_stderr.csv"]
    assert written == [out / name for name in names]
    assert sorted(p.name for p in out.iterdir()) == sorted(names)
    assert all(isinstance(table, TruthTable) for table in report.patterns.values())
    assert report.comparisons == {}
    lines = capsys.readouterr().out.splitlines()
    assert lines[:4] == [f"wrote {path}" for path in written]
    assert [line.split(":")[0] for line in lines[4:]] == ["exact", "asymptotic", "mc", "emit"]


def test_truth_table_mc_writes_stderr_file(tmp_path):
    config = write_config(tmp_path, GATE_SETUP + MC_SMALL)
    out = tmp_path / "out"
    assert main(["truth-table", "--config", config, "--mode", "mc", "--out", str(out)]) == 0
    assert (out / "truth_table_mc.csv").is_file()
    _, _, rows = read_csv(out / "truth_table_mc_stderr.csv")
    assert all(float(v) >= 0.0 for r in rows for v in r[1:])


def test_truth_table_checks_its_own_point(tmp_path, capsys):
    # The [scan] centre (0, 1e-4) sits 12.6 rad off the CNOT phase; the table point
    # (1e-4, 1e-4) of the symmetric mask sits at phase 0.
    text = GATE_SETUP + "\n[scan]\naxis = x_C\ndetector_x = 1e-4\n"
    config = write_config(tmp_path, text)
    out = tmp_path / "out"
    assert main(["truth-table", "--config", config, "--out", str(out), "--strict-conditions"]) == 0
    assert "condition:" not in capsys.readouterr().err
    assert main(["conditions", "--config", config, "--strict-conditions"]) == 2
    assert "condition: phase 12.6 rad is above 0.1 (outside the CNOT regime)" in (
        capsys.readouterr().err.splitlines()
    )


def test_truth_table_rejects_basic_setup(tmp_path, capsys):
    config = write_config(tmp_path, BASIC_SETUP)
    assert main(["truth-table", "--config", config, "--out", str(tmp_path / "o")]) == 1
    assert "gate or mz" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# verify and conditions subcommands
# ---------------------------------------------------------------------------


def test_verify_passes_on_consistent_model(tmp_path, capsys):
    config = write_config(tmp_path, BASIC_SETUP + SCAN_SMALL + MC_SMALL)
    assert main(["verify", "--config", config]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    assert "max_sigma_dev" in out


def test_verify_skips_pearson_on_flat_pattern(tmp_path, capsys):
    # a diagonal scan of the symmetric mask is constant, so only sigma counts
    text = BASIC_SETUP + "\n[scan]\naxis = diagonal\nstart = 0\nstop = 2e-5\nstep = 1e-5\n"
    config = write_config(tmp_path, text + MC_SMALL)
    assert main(["verify", "--config", config]) == 0
    out = capsys.readouterr().out
    assert "pearson criterion skipped" in out
    assert "PASS" in out


def test_verify_fails_on_disagreement(tmp_path, capsys, monkeypatch):
    config = write_config(tmp_path, BASIC_SETUP + SCAN_SMALL + MC_SMALL)
    monkeypatch.setattr(
        "ghostfringe.cli.compare_patterns",
        lambda *args, **kwargs: {"nrmse": 0.5, "pearson": 0.2, "max_sigma_dev": 25.0},
    )
    assert main(["verify", "--config", config]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_verify_rarely_fails_a_consistent_model(tmp_path, capsys):
    """Seed sweep: the noise-corrected Pearson gate rarely FAILs the exact model.

    At 300 realizations the raw Pearson of this 11-point scan falls below 0.99
    on 21 of seeds 0-99; corrected for the ensemble noise it does on two.
    Three seeds FAIL, so the bound has no slack, and each for its own reason:
    seed 20 on the 4-sigma criterion alone (max |z| 4.40), seed 54 on both
    (|z| 5.64, corrected Pearson 0.9748) and seed 65 on the corrected Pearson
    alone (0.9896).
    """
    config = write_config(tmp_path, BASIC_SETUP + SCAN_SMALL + MC_SMALL)
    failed = [
        seed for seed in range(100)
        if main(["verify", "--config", config, "--seed", str(seed)]) != 0
    ]
    capsys.readouterr()
    assert len(failed) <= 3, failed


def test_verify_fails_a_shifted_model(tmp_path, capsys, monkeypatch):
    """A model whose fringes sit 1/16 period off still FAILs on most seeds."""
    mc = MC_SMALL.replace("n_realizations = 300", "n_realizations = 1000")
    config = write_config(tmp_path, BASIC_SETUP + SCAN_SMALL + mc)
    shift = 5e-5 / 16.0  # fringe period lambda * f / |x1 - x2| = 50 um
    evaluate = cli.evaluate_pattern

    def shifted(setup, grid, mode, angles=None):
        pattern = evaluate(setup, grid + [shift, 0.0], mode, angles=angles)
        return replace(pattern, grid=grid)

    monkeypatch.setattr(cli, "evaluate_pattern", shifted)
    failed = [
        seed for seed in range(60)
        if main(["verify", "--config", config, "--seed", str(seed)]) == 1
    ]
    assert "pearson_corrected:" in capsys.readouterr().out
    assert len(failed) >= 52, len(failed)


OFFSET_MASK = BASIC_SETUP + "x1p = -4.9e-3\nx2p = 5.2e-3\n"


def test_verify_reports_conditions(tmp_path, capsys, monkeypatch):
    config = write_config(tmp_path, OFFSET_MASK + SCAN_SMALL + MC_SMALL)
    lines = [
        "condition: within_11p separation is 0.2 l_coh, above 0.1",
        "condition: within_22p separation is 0.4 l_coh, above 0.1",
    ]
    assert main(["verify", "--config", config]) == 0
    out, err = capsys.readouterr()
    assert "PASS" in out
    assert err.splitlines() == lines
    assert main(["verify", "--config", config, "--strict-conditions"]) == 2
    assert capsys.readouterr().err.splitlines() == lines
    # a FAIL keeps exit code 1, violations or not
    monkeypatch.setattr(
        "ghostfringe.cli.compare_patterns",
        lambda *args, **kwargs: {"nrmse": 0.5, "pearson": 0.2, "max_sigma_dev": 25.0},
    )
    assert main(["verify", "--config", config, "--strict-conditions"]) == 1
    out, err = capsys.readouterr()
    assert "FAIL" in out
    assert err.splitlines() == lines


def test_conditions_reports_margins(tmp_path, capsys):
    config = write_config(tmp_path, GATE_SETUP)
    assert main(["conditions", "--config", config]) == 0
    out = capsys.readouterr().out
    assert "cross_12p = 20" in out
    assert "phase = 0" in out
    assert "all condition margins satisfied" in out


def test_conditions_strict_exit_two(tmp_path, capsys):
    close = GATE_SETUP.replace("x1 = -5e-3", "x1 = -5e-4").replace("x2 = 5e-3", "x2 = 5e-4")
    config = write_config(tmp_path, close)
    assert main(["conditions", "--config", config]) == 0
    capsys.readouterr()
    assert main(["conditions", "--config", config, "--strict-conditions"]) == 2
    assert "condition:" in capsys.readouterr().err


def test_mz_conditions_include_tilt_margins(tmp_path, capsys):
    config = write_config(tmp_path, MZ_SETUP)
    assert main(["conditions", "--config", config]) == 0
    out = capsys.readouterr().out
    assert "tilt_c = 10" in out
    assert "tilt_diff = 0" in out
