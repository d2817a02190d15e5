"""Command-line driver: config files, CSV output, exit codes."""

import math
import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import ghostfringe
from ghostfringe import cli
from ghostfringe.analytic import CorrelationPattern
from ghostfringe.cli import ConfigError, RunReport, _write_table, emit, main, parse_config
from ghostfringe.gate import BASIS_LABELS, TruthTable, ideal_cnot_table
from ghostfringe.geometry import SetupBasic, SetupGate, SetupMZ
from ghostfringe.montecarlo import MIN_EMITTERS, MIN_REALIZATIONS
from ghostfringe.patterns import evaluate_pattern, make_grid

BASIC_SETUP = """\
[setup]
a = 0.5e-3
lambda = 500e-9
z = 1.0
f = 1.0
x1 = -5e-3
x2 = 5e-3
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
    text = """\
[setup]
kind = mz
a = 0.5e-3
lambda = 500e-9
z = 1.0
zbar = 0.2
delta_c = 0.0125
delta_t = 0.0125

[angles]
phi_c = 0.785398
"""
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


def test_scan_output_is_reproducible_from_preamble(tmp_path):
    """An output file carries enough configuration to reproduce itself."""
    config = write_config(tmp_path, BASIC_SETUP + SCAN_SMALL + MC_SMALL)
    first = tmp_path / "first"
    main(["scan", "--config", config, "--mode", "mc", "--out", str(first)])
    preamble, _, _ = read_csv(first / "scan_mc.csv")

    sections = {
        "setup": ("kind", "a", "lambda", "z", "f", "x1", "x2", "x1p", "x2p"),
        "scan": ("axis", "start", "stop", "step", "detector_x"),
        "run": ("mode",),
        "mc": ("n_realizations", "n_emitters", "seed"),
    }
    rebuilt = []
    for section, keys in sections.items():
        rebuilt.append(f"[{section}]")
        rebuilt.extend(f"{key} = {preamble[key]}" for key in keys if key in preamble)
    rebuilt_path = write_config(tmp_path, "\n".join(rebuilt) + "\n", name="rebuilt.ini")

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


def make_report(config, grid, patterns, comparisons=None):
    return RunReport(
        config=config, grid=grid, patterns=patterns,
        comparisons=comparisons or {}, margins={}, problems=[], timings={},
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
    written = emit(make_report(config, grid, patterns, comparisons), out)
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
    emit(make_report(config, grid, patterns), out)
    head = preamble_lines(config)
    for mode, table, header in (
        ("exact", np.column_stack([grid, values]), "x_C,x_T,value"),
        ("mc", np.column_stack([grid, magnitude, magnitude]), "x_C,x_T,value,stderr"),
    ):
        expected = per_cell_csv(head + [f"# pattern_mode={patterns[mode].mode}", header],
                                table.tolist())
        assert (out / f"scan_{mode}.csv").read_bytes() == expected.encode()


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

    peak(4096)
    assert peak(65536) <= 1.25 * peak(4096)


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
    emit(make_report(config, grid, {"mc": pattern}), tmp_path)
    head = preamble_lines(config) + ["# pattern_mode=monte-carlo", "x_C,x_T,value,stderr"]
    assert (tmp_path / "scan_mc.csv").read_text() == "\n".join(head) + "\n"


def test_truth_table_csv_matches_per_cell_formatting(tmp_path):
    config = parse_config(write_config(tmp_path, GATE_SETUP))
    values = ideal_cnot_table() / 3.0
    values[0, 1:] = [-0.0, math.nan, 5e-324]
    stderr = np.full((4, 4), 1e308)
    stderr[3] = [math.inf, -math.inf, 0.1, -1e-300]
    table = TruthTable(values, stderr=stderr)
    for which, data in (("values", values), ("stderr", stderr)):
        path = tmp_path / f"{which}.csv"
        _write_table(path, preamble_lines(config), table, which)
        head = preamble_lines(config) + [f"# table={which}", "input,HH,HV,VH,VV"]
        rows = [[label, *row] for label, row in zip(BASIS_LABELS, data.tolist())]
        assert path.read_text() == per_cell_csv(head, rows)
        assert_cells_round_trip(path, data, first_column=1)


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


def test_usage_error_exits_one():
    with pytest.raises(SystemExit) as excinfo:
        main(["scan"])  # missing --config
    assert excinfo.value.code == 1


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
    """Seed sweep: the noise-corrected Pearson gate passes the exact model.

    At 300 realizations the raw Pearson of this 11-point scan falls below 0.99
    on about a quarter to a third of seeds; corrected for the ensemble noise
    it does not. What FAILs remain come from the 4-sigma criterion, about 1%
    of seeds.
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
    text = """\
[setup]
kind = mz
a = 0.5e-3
lambda = 500e-9
z = 1.0
zbar = 0.2
delta_c = 0.0125
delta_t = 0.0125
"""
    config = write_config(tmp_path, text)
    assert main(["conditions", "--config", config]) == 0
    out = capsys.readouterr().out
    assert "tilt_c = 10" in out
    assert "tilt_diff = 0" in out
