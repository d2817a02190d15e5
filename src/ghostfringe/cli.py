"""Command-line driver: config parsing, scans, truth tables, condition reports.

Experiment files are INI-style with sections [setup], [angles], [scan], [run]
and [mc]; see the --help epilog for keys and defaults. Results are written as
CSV with a `# key=value` preamble capturing the full configuration, so a run
can be reproduced from its own output.
"""

from __future__ import annotations

import argparse
import configparser
import difflib
import math
import sys
import time
import warnings
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .analytic import (
    CorrelationPattern,
    Violation,
    closed_form,
    condition_margins,
    violations,
    worst_margins,
)
from .gate import BASIS_LABELS, TruthTable, basis_table
# Not called here: perfbench/tracer.py spans the one-point gate closed forms at
# this lookup site, and its per-layer report needs the names to exist.
from .gate import dn_corr_gate, dn_corr_mz  # noqa: F401
from .geometry import ConditionWarning, GateAngles, SetupBasic, SetupGate, SetupMZ
from .montecarlo import (
    MIN_EMITTERS,
    MIN_REALIZATIONS,
    EnsembleEstimate,
    check_ensemble_size,
    compare_patterns,
    estimate_dn_corr,
    estimate_truth_table,
)
from .patterns import SCAN_AXES, evaluate_pattern, make_grid

MODES = ("exact", "asymptotic", "mc", "all")

_SETUP_KINDS = ("basic", "gate", "mz")
_MASK_KEYS = frozenset({"kind", "a", "lambda", "z", "f", "x1", "x2", "x1p", "x2p"})
_MZ_KEYS = frozenset({"kind", "a", "lambda", "z", "zbar", "delta_c", "delta_t"})
_ANGLE_KEYS = frozenset({"phi_c", "phi_t", "theta_c", "theta_t"})
_SCAN_KEYS = frozenset({"axis", "start", "stop", "step", "detector_x"})
_RUN_KEYS = frozenset({"mode"})
_MC_KEYS = frozenset({"n_realizations", "n_emitters", "seed"})
_SECTIONS = ("setup", "angles", "scan", "run", "mc")

_DEFAULTS_HELP = f"""\
configuration file sections and defaults:
  [setup]  kind=basic|gate|mz (default basic)
           basic/gate keys: a, lambda, z, f, x1, x2 (required),
           x1p (default x1), x2p (default x2)
           mz keys: a, lambda, z, zbar, delta_c, delta_t (all required)
  [angles] phi_c, phi_t, theta_c, theta_t in radians, each default 0.0
           (gate and mz setups only; the section is rejected for basic)
  [scan]   axis=x_C|x_T|diagonal (default diagonal), start (default -0.0002),
           stop (default 0.0002), step (default 5e-06),
           detector_x (default 0.0; the parked detector for x_C/x_T scans
           and the truth-table detector position)
  [run]    mode=exact|asymptotic|mc|all (default exact)
  [mc]     n_realizations (default 10000, at least {MIN_REALIZATIONS}),
           n_emitters (default 256, at least {MIN_EMITTERS}), seed (default 0)

exit codes:
  0 success, 1 error, 2 condition-margin violations with --strict-conditions
"""


class ConfigError(Exception):
    """Invalid experiment configuration; the message names section and key."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully validated run description, the in-memory form of a config file."""

    kind: str
    setup: SetupBasic | SetupGate | SetupMZ
    angles: GateAngles | None
    axis: str
    start: float
    stop: float
    step: float
    detector_x: float
    mode: str
    n_realizations: int
    n_emitters: int
    seed: int

    def preamble_items(self) -> list[tuple[str, object]]:
        """Canonical (key, value) pairs capturing the whole configuration."""
        setup = self.setup
        items: list[tuple[str, object]] = [("kind", self.kind)]
        if isinstance(setup, SetupMZ):
            items += [
                ("a", setup.a), ("lambda", setup.wavelength), ("z", setup.z),
                ("zbar", setup.zbar), ("delta_c", setup.delta_c),
                ("delta_t", setup.delta_t),
            ]
        else:
            items += [
                ("a", setup.a), ("lambda", setup.wavelength), ("z", setup.z),
                ("f", setup.f), ("x1", setup.x1), ("x2", setup.x2),
                ("x1p", setup.x1p), ("x2p", setup.x2p),
            ]
        if self.angles is not None:
            items += [
                ("phi_c", self.angles.phi_c), ("phi_t", self.angles.phi_t),
                ("theta_c", self.angles.theta_c), ("theta_t", self.angles.theta_t),
            ]
        items += [
            ("axis", self.axis), ("start", self.start), ("stop", self.stop),
            ("step", self.step), ("detector_x", self.detector_x),
            ("mode", self.mode), ("n_realizations", self.n_realizations),
            ("n_emitters", self.n_emitters), ("seed", self.seed),
        ]
        return items


@dataclass
class RunReport:
    """Everything one run produced: patterns per mode, margins, metrics, timings."""

    config: ExperimentConfig
    grid: np.ndarray
    patterns: dict[str, CorrelationPattern]
    estimates: dict[str, EnsembleEstimate]
    comparisons: dict[str, dict[str, float]]
    margins: dict[str, float]
    problems: list[Violation]
    timings: dict[str, float]


def _unknown_key(section: str, key: str, known) -> ConfigError:
    hint = difflib.get_close_matches(key, sorted(known), n=1)
    suggestion = f" (did you mean {hint[0]!r}?)" if hint else ""
    return ConfigError(f"unknown key {key!r} in [{section}]{suggestion}")


def _as_float(section: str, key: str, raw: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"[{section}] {key} must be a number, got {raw!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"[{section}] {key} must be finite, got {raw!r}")
    return value


def _as_int(section: str, key: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"[{section}] {key} must be an integer, got {raw!r}") from None


def _read_section(cp: configparser.ConfigParser, name: str, known: frozenset) -> dict[str, str]:
    if not cp.has_section(name):
        return {}
    raw = dict(cp.items(name))
    for key in raw:
        if key not in known:
            raise _unknown_key(name, key, known)
    return raw


def parse_config(path) -> ExperimentConfig:
    """Read and validate an experiment file, applying documented defaults."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    cp = configparser.ConfigParser(interpolation=None)
    try:
        with open(path) as fh:
            cp.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"parse error in {path}: {exc}") from exc

    for section in cp.sections():
        if section not in _SECTIONS:
            hint = difflib.get_close_matches(section, _SECTIONS, n=1)
            suggestion = f" (did you mean [{hint[0]}]?)" if hint else ""
            raise ConfigError(f"unknown section [{section}]{suggestion}")
    if not cp.has_section("setup"):
        raise ConfigError("missing required section [setup]")

    raw_setup = dict(cp.items("setup"))
    kind = raw_setup.get("kind", "basic")
    if kind not in _SETUP_KINDS:
        raise ConfigError(f"[setup] kind must be one of {', '.join(_SETUP_KINDS)}, got {kind!r}")
    known = _MZ_KEYS if kind == "mz" else _MASK_KEYS
    for key in raw_setup:
        if key not in known:
            raise _unknown_key("setup", key, known)

    def setup_value(key: str) -> float:
        if key not in raw_setup:
            raise ConfigError(f"[setup] missing required key {key!r} for kind={kind}")
        return _as_float("setup", key, raw_setup[key])

    try:
        if kind == "mz":
            setup: SetupBasic | SetupGate | SetupMZ = SetupMZ(
                a=setup_value("a"), wavelength=setup_value("lambda"),
                z=setup_value("z"), zbar=setup_value("zbar"),
                delta_c=setup_value("delta_c"), delta_t=setup_value("delta_t"),
            )
        else:
            x1 = setup_value("x1")
            x2 = setup_value("x2")
            x1p = _as_float("setup", "x1p", raw_setup["x1p"]) if "x1p" in raw_setup else x1
            x2p = _as_float("setup", "x2p", raw_setup["x2p"]) if "x2p" in raw_setup else x2
            cls = SetupGate if kind == "gate" else SetupBasic
            setup = cls(
                a=setup_value("a"), wavelength=setup_value("lambda"),
                z=setup_value("z"), f=setup_value("f"),
                x1=x1, x2=x2, x1p=x1p, x2p=x2p,
            )
    except ValueError as exc:
        raise ConfigError(f"[setup] {exc}") from exc

    angles: GateAngles | None = None
    if cp.has_section("angles"):
        if kind == "basic":
            raise ConfigError("[angles] only applies to gate and mz setups")
        raw_angles = _read_section(cp, "angles", _ANGLE_KEYS)
        values = {key: _as_float("angles", key, raw) for key, raw in raw_angles.items()}
        try:
            angles = GateAngles(
                phi_c=values.get("phi_c", 0.0), phi_t=values.get("phi_t", 0.0),
                theta_c=values.get("theta_c", 0.0), theta_t=values.get("theta_t", 0.0),
            )
        except ValueError as exc:
            raise ConfigError(f"[angles] {exc}") from exc
    elif kind != "basic":
        angles = GateAngles(0.0, 0.0, 0.0, 0.0)

    raw_scan = _read_section(cp, "scan", _SCAN_KEYS)
    axis = raw_scan.get("axis", "diagonal")
    if axis not in SCAN_AXES:
        raise ConfigError(f"[scan] axis must be one of {', '.join(SCAN_AXES)}, got {axis!r}")

    def scan_value(key: str, default: float) -> float:
        return _as_float("scan", key, raw_scan[key]) if key in raw_scan else default

    start = scan_value("start", -2.0e-4)
    stop = scan_value("stop", 2.0e-4)
    step = scan_value("step", 5.0e-6)
    detector_x = scan_value("detector_x", 0.0)
    if step <= 0.0:
        raise ConfigError(f"[scan] step must be positive, got {step}")
    if stop < start:
        raise ConfigError(f"[scan] stop {stop} is below start {start}")

    raw_run = _read_section(cp, "run", _RUN_KEYS)
    mode = raw_run.get("mode", "exact")
    if mode not in MODES:
        raise ConfigError(f"[run] mode must be one of {', '.join(MODES)}, got {mode!r}")

    raw_mc = _read_section(cp, "mc", _MC_KEYS)
    n_realizations = _as_int("mc", "n_realizations", raw_mc["n_realizations"]) \
        if "n_realizations" in raw_mc else 10000
    n_emitters = _as_int("mc", "n_emitters", raw_mc["n_emitters"]) if "n_emitters" in raw_mc else 256
    seed = _as_int("mc", "seed", raw_mc["seed"]) if "seed" in raw_mc else 0
    try:
        check_ensemble_size(n_realizations, n_emitters)
    except ValueError as exc:
        raise ConfigError(f"[mc] {exc}") from exc

    return ExperimentConfig(
        kind=kind, setup=setup, angles=angles,
        axis=axis, start=start, stop=stop, step=step, detector_x=detector_x,
        mode=mode, n_realizations=n_realizations, n_emitters=n_emitters, seed=seed,
    )


def conditions_report(config: ExperimentConfig, grid: np.ndarray):
    """Condition margins over a grid of (x_C, x_T) and the violated ones.

    Each margin takes its worst value over the grid, except phase, which is
    taken at the grid's centre point: a scan sweeps the gate's phase by design.
    Returns (margins, violations), both in CONDITIONS order.
    """
    margins = condition_margins(config.setup, grid[:, 0], grid[:, 1])
    if "phase" in margins:
        margins["phase"] = margins["phase"][len(grid) // 2]
    return worst_margins(margins), violations(margins)


def run(config: ExperimentConfig) -> RunReport:
    """Evaluate the configured scan in every requested mode."""
    grid = make_grid(config.axis, config.start, config.stop, config.step, config.detector_x)
    wanted = ["exact", "asymptotic", "mc"] if config.mode == "all" else [config.mode]
    patterns: dict[str, CorrelationPattern] = {}
    estimates: dict[str, EnsembleEstimate] = {}
    timings: dict[str, float] = {}
    # conditions_report checks the whole grid for every mode, so the closed
    # forms' own warnings would only repeat it.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConditionWarning)
        for mode in wanted:
            tic = time.perf_counter()
            if mode == "mc":
                estimate = estimate_dn_corr(
                    config.setup, grid, config.n_realizations, config.seed,
                    angles=config.angles, n_emitters=config.n_emitters,
                )
                estimates[mode] = estimate
                patterns[mode] = estimate.pattern
            else:
                patterns[mode] = evaluate_pattern(config.setup, grid, mode, angles=config.angles)
            timings[mode] = time.perf_counter() - tic

    comparisons: dict[str, dict[str, float]] = {}
    for mode in ("exact", "asymptotic"):
        if mode in patterns and "mc" in estimates:
            comparisons[f"{mode}_vs_mc"] = compare_patterns(patterns[mode], estimates["mc"])
    if "exact" in patterns and "asymptotic" in patterns:
        comparisons["exact_vs_asymptotic"] = compare_patterns(
            patterns["exact"], patterns["asymptotic"]
        )

    margins, problems = conditions_report(config, grid)
    return RunReport(
        config=config, grid=grid, patterns=patterns, estimates=estimates,
        comparisons=comparisons, margins=margins, problems=problems, timings=timings,
    )


def _preamble(config: ExperimentConfig) -> list[str]:
    lines = []
    for key, value in config.preamble_items():
        text = repr(value) if isinstance(value, float) else str(value)
        lines.append(f"# {key}={text}")
    return lines


# Rows per `%` call: enough that the per-call cost vanishes, few enough that
# one block's cells stay small however long the scan is.
_ROWS_PER_BLOCK = 1024


def _write_csv(path: Path, head: list[str], table, labels=None) -> None:
    """Write the head lines, then one row per row of the 2-D float table.

    Every cell is `%.17g`, 17 significant digits, which round-trips any double
    exactly. Each block of rows is one `%` call on a repeated row template, so
    no Python code runs per cell. labels, when given, lead each row as a string.

    A column whose float64 bits equal an earlier column's (x_T on a diagonal
    scan) is formatted once per block, and every position that repeats it
    takes those strings through `%s`. The test is on bits, not `==`: -0.0 and
    0.0 compare equal but print as `-0` and `0`, so only bit equality keeps
    every output byte.
    """
    table = np.asarray(table, dtype=float)
    bits = table.view(np.uint64)
    n_columns = table.shape[1]
    first = [next(i for i in range(j + 1) if np.array_equal(bits[:, i], bits[:, j]))
             for j in range(n_columns)]
    positions = {j: [p for p in range(n_columns) if first[p] == j] for j in set(first)}
    shared = {j for j, where in positions.items() if len(where) > 1}
    cells = ["%s" if first[p] in shared else "%.17g" for p in range(n_columns)]
    lead = 0 if labels is None else 1
    row = ",".join(["%s"] * lead + cells) + "\n"
    width = lead + n_columns
    # A new file, not the old one truncated: rewriting an inode in place costs
    # more than unlinking it, and a hard link to the old output keeps its bytes.
    path.unlink(missing_ok=True)
    with path.open("w") as fh:
        fh.write("\n".join(head) + "\n")
        for start in range(0, len(table), _ROWS_PER_BLOCK):
            block = table[start:start + _ROWS_PER_BLOCK]
            n = len(block)
            args = [None] * (n * width)
            if lead:
                args[0::width] = labels[start:start + n]
            for j, where in positions.items():
                column = block[:, j].tolist()
                if j in shared:
                    column = (("%.17g\n" * n) % tuple(column)).split("\n")[:-1]
                for p in where:
                    args[lead + p::width] = column
            fh.write((row * n) % tuple(args))


def emit(report: RunReport, out_dir) -> list[Path]:
    """Write one CSV per pattern plus a comparison CSV when two modes ran.

    Output is a pure function of the configuration, so repeated runs produce
    byte-identical files.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    preamble = _preamble(report.config)
    written: list[Path] = []
    for mode, pattern in report.patterns.items():
        columns = [report.grid, pattern.values]
        header = "x_C,x_T,value"
        if pattern.stderr is not None:
            columns.append(pattern.stderr)
            header += ",stderr"
        path = out / f"scan_{mode}.csv"
        _write_csv(
            path, preamble + [f"# pattern_mode={pattern.mode}", header],
            np.column_stack(columns),
        )
        written.append(path)
    if report.comparisons:
        names = ("nrmse", "pearson", "max_sigma_dev")
        path = out / "scan_compare.csv"
        _write_csv(
            path, preamble + ["pair," + ",".join(names)],
            [[metrics[name] for name in names] for metrics in report.comparisons.values()],
            labels=list(report.comparisons),
        )
        written.append(path)
    return written


def _closed_form_table(setup, x_c: float, x_t: float, mode: str) -> TruthTable:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConditionWarning)
        values = closed_form(basis_table(setup), x_c, x_t, mode)
    return TruthTable(inputs=BASIS_LABELS, outputs=BASIS_LABELS, values=values.reshape(4, 4))


def _write_table(path: Path, preamble: list[str], table: TruthTable, which: str) -> None:
    _write_csv(
        path, preamble + [f"# table={which}", "input," + ",".join(table.outputs)],
        table.values if which == "values" else table.stderr, labels=table.inputs,
    )


def _load_config(args: argparse.Namespace) -> ExperimentConfig:
    config = parse_config(args.config)
    if getattr(args, "mode", None):
        config = replace(config, mode=args.mode)
    if getattr(args, "seed", None) is not None:
        config = replace(config, seed=args.seed)
    return config


def _report_problems(problems: list[Violation], strict: bool) -> int:
    for problem in problems:
        print(f"condition: {problem}", file=sys.stderr)
    return 2 if strict and problems else 0


def cmd_scan(args: argparse.Namespace) -> int:
    config = _load_config(args)
    report = run(config)
    tic = time.perf_counter()
    written = emit(report, args.out)
    report.timings["emit"] = time.perf_counter() - tic
    for path in written:
        print(f"wrote {path}")
    for mode, seconds in report.timings.items():
        print(f"{mode}: {seconds:.3f} s")
    for pair, metrics in report.comparisons.items():
        print(
            f"{pair}: nrmse={metrics['nrmse']:.4g}"
            f" pearson={metrics['pearson']:.6g}"
            f" max_sigma_dev={metrics['max_sigma_dev']:.4g}"
        )
    return _report_problems(report.problems, args.strict_conditions)


def cmd_truth_table(args: argparse.Namespace) -> int:
    config = _load_config(args)
    if not isinstance(config.setup, (SetupGate, SetupMZ)):
        raise ConfigError("truth-table needs a gate or mz setup")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    preamble = _preamble(config)
    x_c = x_t = config.detector_x
    wanted = ["exact", "asymptotic", "mc"] if config.mode == "all" else [config.mode]
    written: list[Path] = []
    for mode in wanted:
        if mode == "mc":
            table = estimate_truth_table(
                config.setup, x_c, x_t, config.n_realizations, config.seed,
                n_emitters=config.n_emitters,
            )
        else:
            table = _closed_form_table(config.setup, x_c, x_t, mode)
        path = out / f"truth_table_{mode}.csv"
        _write_table(path, preamble, table, "values")
        written.append(path)
        if table.stderr is not None:
            err_path = out / f"truth_table_{mode}_stderr.csv"
            _write_table(err_path, preamble, table, "stderr")
            written.append(err_path)
    for path in written:
        print(f"wrote {path}")
    _, problems = conditions_report(config, np.array([[x_c, x_t]]))
    return _report_problems(problems, args.strict_conditions)


def _corrected_pearson(pearson: float, pattern: CorrelationPattern) -> float:
    """Pearson correlation against a noise-free curve, corrected for the pattern's noise.

    Independent noise of variance mean(stderr**2) attenuates the correlation
    of a noisy pattern with the true one by sqrt(reliability), where
    reliability = 1 - mean(stderr**2) / var(values) is the share of the
    pattern's variance that is signal (Spearman 1904). Values and stderr share
    one scale, so the ratio does not depend on it. NaN when noise accounts
    for all of the variance, or there is no variance to split.
    """
    values = np.asarray(pattern.values, dtype=float)
    stderr = np.asarray(pattern.stderr, dtype=float)
    variance = np.var(values, ddof=1) if values.size > 1 else 0.0
    reliability = 1.0 - np.mean(stderr**2) / variance if variance > 0.0 else 0.0
    return pearson / math.sqrt(reliability) if reliability > 0.0 else math.nan


def cmd_verify(args: argparse.Namespace) -> int:
    report = run(replace(_load_config(args), mode="all"))
    exact = report.patterns["exact"]
    metrics = report.comparisons["exact_vs_mc"]
    corrected = _corrected_pearson(metrics["pearson"], report.patterns["mc"])
    print(f"nrmse: {metrics['nrmse']:.6g}")
    print(f"pearson: {metrics['pearson']:.6g}")
    print(f"pearson_corrected: {corrected:.6g}")
    print(f"max_sigma_dev: {metrics['max_sigma_dev']:.6g}")
    sigma_ok = metrics["max_sigma_dev"] <= 4.0
    values = np.asarray(exact.values)
    flat = values.max() <= 0.0 or np.ptp(values) <= 1e-9 * values.max()
    pearson_ok = flat or corrected >= 0.99
    if flat:
        print("pattern is flat; pearson criterion skipped")
    passed = sigma_ok and pearson_ok
    print("PASS" if passed else "FAIL")
    status = _report_problems(report.problems, args.strict_conditions)
    return status if passed else 1


def cmd_conditions(args: argparse.Namespace) -> int:
    config = _load_config(args)
    grid = make_grid(config.axis, config.start, config.stop, config.step, config.detector_x)
    margins, problems = conditions_report(config, grid)
    for key, value in margins.items():
        print(f"{key} = {value:.6g}")
    if not problems:
        print("all condition margins satisfied")
    return _report_problems(problems, args.strict_conditions)


class _Parser(argparse.ArgumentParser):
    # Usage mistakes are plain errors (exit 1); exit 2 is reserved for
    # condition-margin violations under --strict-conditions.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ghostfringe",
        description="Correlation scans and gate truth tables for chaotic-light interferometers.",
        epilog=_DEFAULTS_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, with_mode: bool, with_out: bool) -> None:
        p.add_argument("--config", required=True, help="experiment file (INI)")
        if with_out:
            p.add_argument("--out", default="out", help="output directory (default: out)")
        if with_mode:
            p.add_argument("--mode", choices=MODES, help="override the configured mode")
        p.add_argument("--seed", type=int, help="override the configured ensemble seed")
        p.add_argument(
            "--strict-conditions", action="store_true",
            help="exit with code 2 when condition margins are violated",
        )

    p_scan = sub.add_parser("scan", help="run the configured scan and write CSV patterns")
    add_common(p_scan, with_mode=True, with_out=True)
    p_scan.set_defaults(func=cmd_scan)

    p_table = sub.add_parser("truth-table", help="write the 4x4 basis joint-probability table")
    add_common(p_table, with_mode=True, with_out=True)
    p_table.set_defaults(func=cmd_truth_table)

    p_verify = sub.add_parser("verify", help="compare the exact pattern against the ensemble")
    add_common(p_verify, with_mode=False, with_out=False)
    p_verify.set_defaults(func=cmd_verify)

    p_cond = sub.add_parser("conditions", help="print condition margins for the configuration")
    add_common(p_cond, with_mode=False, with_out=False)
    p_cond.set_defaults(func=cmd_conditions)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())


__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "RunReport",
    "build_parser",
    "conditions_report",
    "emit",
    "main",
    "parse_config",
    "run",
]
