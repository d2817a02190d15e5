"""Command-line driver: config parsing, scans, truth tables, condition reports.

Experiment files are INI-style with sections [setup], [angles], [scan], [run]
and [mc]; see the --help epilog for keys and defaults. The dataclasses are
the file format: [setup] holds `kind` and the fields of its setup class,
[angles] the fields of GateAngles, and [scan], [run] and [mc] the
ExperimentConfig fields that name them, each key spelled as its field except
`lambda` for wavelength. Results are written as CSV with a `# key=value`
preamble capturing the full configuration, so a run can be reproduced from
its own output.
"""

from __future__ import annotations

import argparse
import configparser
import math
import sys
import time
import warnings
from dataclasses import dataclass, field, fields, replace
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
    SourceModel,
    check_ensemble_size,
    compare_patterns,
    estimate_dn_corr,
    estimate_truth_table,
)
from .patterns import SCAN_AXES, evaluate_pattern, make_grid

MODES = ("exact", "asymptotic", "mc", "all")

_SETUP_CLASSES = {"basic": SetupBasic, "gate": SetupGate, "mz": SetupMZ}
_SETUP_KINDS = {cls: kind for kind, cls in _SETUP_CLASSES.items()}
# The one field whose file key is not its name.
_FILE_KEYS = {"wavelength": "lambda"}
# Arm T's pinholes sit where arm C's do unless the file places them.
_SETUP_FALLBACKS = {"x1p": "x1", "x2p": "x2"}


class ConfigError(Exception):
    """Invalid experiment configuration; the message names section and key."""


def _option(section: str, default, choices: tuple[str, ...] = ()):
    """A field read from its own key in [section]; a file value takes the default's type."""
    return field(default=default, metadata={"section": section, "choices": choices})


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully validated run description, the in-memory form of a config file."""

    setup: SetupBasic | SetupGate | SetupMZ
    angles: GateAngles | None
    axis: str = _option("scan", "diagonal", SCAN_AXES)
    start: float = _option("scan", -2.0e-4)
    stop: float = _option("scan", 2.0e-4)
    step: float = _option("scan", 5.0e-6)
    detector_x: float = _option("scan", 0.0)
    mode: str = _option("run", "exact", MODES)
    n_realizations: int = _option("mc", 10000)
    n_emitters: int = _option("mc", SourceModel.n_emitters)
    seed: int = _option("mc", 0)

    def preamble_items(self) -> list[tuple[str, object]]:
        """Canonical (key, value) pairs capturing the whole configuration.

        `kind`, the name of the setup's class, then the fields of the setup, of
        the angles if any, and the scan, run and mc fields, each in field order.
        """
        parts = (self.setup, self.angles) if self.angles is not None else (self.setup,)
        items: list[tuple[str, object]] = [("kind", _SETUP_KINDS[type(self.setup)])]
        items += [(_FILE_KEYS.get(f.name, f.name), getattr(part, f.name))
                  for part in parts for f in fields(part)]
        return items + [(f.name, getattr(self, f.name)) for f in _OPTIONS]


_OPTIONS = [f for f in fields(ExperimentConfig) if "section" in f.metadata]
_OPTION_SECTIONS = tuple(dict.fromkeys(f.metadata["section"] for f in _OPTIONS))
_SECTIONS = ("setup", "angles", *_OPTION_SECTIONS)
_DEFAULT = {f.name: f.default for f in _OPTIONS}

_DEFAULTS_HELP = f"""\
configuration file sections and defaults:
  [setup]  kind=basic|gate|mz (default basic)
           basic/gate keys: a, lambda, z, f, x1, x2 (required),
           x1p (default x1), x2p (default x2)
           mz keys: a, lambda, z, zbar, delta_c, delta_t (all required)
  [angles] phi_c, phi_t, theta_c, theta_t in radians, each default 0.0
           (gate and mz setups only; the section is rejected for basic)
  [scan]   axis=x_C|x_T|diagonal (default {_DEFAULT['axis']}), start (default {_DEFAULT['start']}),
           stop (default {_DEFAULT['stop']}), step (default {_DEFAULT['step']}),
           detector_x (default {_DEFAULT['detector_x']}; the parked detector for x_C/x_T scans
           and the truth-table detector position)
  [run]    mode=exact|asymptotic|mc|all (default {_DEFAULT['mode']})
  [mc]     n_realizations (default {_DEFAULT['n_realizations']}, at least {MIN_REALIZATIONS}),
           n_emitters (default {_DEFAULT['n_emitters']}, at least {MIN_EMITTERS}), \
seed (default {_DEFAULT['seed']})

exit codes:
  0 success, 1 error, 2 condition-margin violations with --strict-conditions
"""


@dataclass
class RunReport:
    """Everything one run produced: results per mode, violations, metrics, timings.

    A scan's results are CorrelationPatterns, a truth table's TruthTables.
    """

    config: ExperimentConfig
    patterns: dict[str, CorrelationPattern | TruthTable]
    comparisons: dict[str, dict[str, float]]
    problems: list[Violation]
    timings: dict[str, float]


def _as(section: str, key: str, raw: str, type_: type):
    """raw read as a type_: str as it is, int, or a finite float."""
    if type_ is str:
        return raw
    try:
        value = type_(raw)
    except ValueError:
        noun = "a number" if type_ is float else "an integer"
        raise ConfigError(f"[{section}] {key} must be {noun}, got {raw!r}") from None
    if type_ is float and not math.isfinite(value):
        raise ConfigError(f"[{section}] {key} must be finite, got {raw!r}")
    return value


def _read_section(cp: configparser.ConfigParser, name: str, known) -> dict[str, str]:
    """The key=value pairs of [name], empty when it is absent; each key must be known."""
    raw = dict(cp.items(name)) if cp.has_section(name) else {}
    for key in raw:
        if key not in known:
            import difflib  # only a mistyped key or section loads it
            hint = difflib.get_close_matches(key, sorted(known), n=1)
            suggestion = f" (did you mean {hint[0]!r}?)" if hint else ""
            raise ConfigError(f"unknown key {key!r} in [{name}]{suggestion}")
    return raw


def _check_choice(section: str, key: str, value: str, choices) -> None:
    if value not in choices:
        raise ConfigError(f"[{section}] {key} must be one of {', '.join(choices)}, got {value!r}")


def parse_config(path) -> ExperimentConfig:
    """Read and validate an experiment file, applying documented defaults."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    # default_section="" makes [DEFAULT] an ordinary, and so unknown, section
    # instead of a source of keys in every other section.
    cp = configparser.ConfigParser(
        interpolation=None, inline_comment_prefixes=(";",), default_section=""
    )
    try:
        with open(path) as fh:
            cp.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"parse error in {path}: {exc}") from exc

    for section in cp.sections():
        if section not in _SECTIONS:
            import difflib
            hint = difflib.get_close_matches(section, _SECTIONS, n=1)
            suggestion = f" (did you mean [{hint[0]}]?)" if hint else ""
            raise ConfigError(f"unknown section [{section}]{suggestion}")
    if not cp.has_section("setup"):
        raise ConfigError("missing required section [setup]")

    kind = cp.get("setup", "kind", fallback="basic")
    _check_choice("setup", "kind", kind, _SETUP_CLASSES)
    names = {_FILE_KEYS.get(f.name, f.name): f.name for f in fields(_SETUP_CLASSES[kind])}
    raw = _read_section(cp, "setup", {"kind", *names})
    values: dict[str, object] = {}
    for key, name in names.items():
        if key in raw:
            values[name] = _as("setup", key, raw[key], float)
        elif name in _SETUP_FALLBACKS:
            values[name] = values[_SETUP_FALLBACKS[name]]
        else:
            raise ConfigError(f"[setup] missing required key {key!r} for kind={kind}")
    try:
        setup = _SETUP_CLASSES[kind](**values)
    except ValueError as exc:
        raise ConfigError(f"[setup] {exc}") from exc

    angles: GateAngles | None = None
    if kind == "basic" and cp.has_section("angles"):
        raise ConfigError("[angles] only applies to gate and mz setups")
    if kind != "basic":
        keys = [f.name for f in fields(GateAngles)]
        raw = _read_section(cp, "angles", keys)
        angles = GateAngles(**{key: _as("angles", key, raw[key], float) if key in raw else 0.0
                               for key in keys})

    options: dict[str, object] = {}
    for section in _OPTION_SECTIONS:
        in_section = [f for f in _OPTIONS if f.metadata["section"] == section]
        raw = _read_section(cp, section, [f.name for f in in_section])
        for f in in_section:
            value = _as(section, f.name, raw[f.name], type(f.default)) \
                if f.name in raw else f.default
            if f.metadata["choices"]:
                _check_choice(section, f.name, value, f.metadata["choices"])
            options[f.name] = value
    if options["step"] <= 0.0:
        raise ConfigError(f"[scan] step must be positive, got {options['step']}")
    if options["stop"] < options["start"]:
        raise ConfigError(f"[scan] stop {options['stop']} is below start {options['start']}")
    try:
        check_ensemble_size(options["n_realizations"], options["n_emitters"])
    except ValueError as exc:
        raise ConfigError(f"[mc] {exc}") from exc
    return ExperimentConfig(setup=setup, angles=angles, **options)


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


def _each_mode(config: ExperimentConfig, points: np.ndarray, evaluate) -> RunReport:
    """A report of evaluate(mode) for every configured mode, the seconds each
    took and the condition problems at points, with no comparisons yet.

    conditions_report checks the configured points for every mode, so the
    closed forms' own warnings would only repeat it.
    """
    results, timings = {}, {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConditionWarning)
        for mode in MODES[:-1] if config.mode == "all" else (config.mode,):
            tic = time.perf_counter()
            results[mode] = evaluate(mode)
            timings[mode] = time.perf_counter() - tic
    _, problems = conditions_report(config, points)
    return RunReport(config=config, patterns=results, comparisons={}, problems=problems,
                     timings=timings)


def run(config: ExperimentConfig) -> RunReport:
    """Evaluate the configured scan in every requested mode and compare the modes."""
    grid = make_grid(config.axis, config.start, config.stop, config.step, config.detector_x)

    def evaluate(mode: str) -> CorrelationPattern:
        if mode == "mc":
            return estimate_dn_corr(
                config.setup, grid, config.n_realizations, config.seed,
                angles=config.angles, n_emitters=config.n_emitters,
            )
        return evaluate_pattern(config.setup, grid, mode, angles=config.angles)

    report = _each_mode(config, grid, evaluate)
    patterns, comparisons = report.patterns, report.comparisons
    for mode in ("exact", "asymptotic"):
        if mode in patterns and "mc" in patterns:
            comparisons[f"{mode}_vs_mc"] = compare_patterns(patterns[mode], patterns["mc"])
    if "exact" in patterns and "asymptotic" in patterns:
        comparisons["exact_vs_asymptotic"] = compare_patterns(
            patterns["exact"], patterns["asymptotic"]
        )
    return report


def run_table(config: ExperimentConfig) -> RunReport:
    """Evaluate the basis truth table at (detector_x, detector_x) in every requested mode."""
    if not isinstance(config.setup, (SetupGate, SetupMZ)):
        raise ConfigError("truth-table needs a gate or mz setup")
    x = config.detector_x

    def evaluate(mode: str) -> TruthTable:
        if mode == "mc":
            return estimate_truth_table(
                config.setup, x, x, config.n_realizations, config.seed,
                n_emitters=config.n_emitters,
            )
        return TruthTable(values=closed_form(basis_table(config.setup), x, x, mode).reshape(4, 4))

    return _each_mode(config, np.array([[x, x]]), evaluate)


def _preamble(config: ExperimentConfig) -> list[str]:
    return [f"# {key}={value!r}" if isinstance(value, float) else f"# {key}={value}"
            for key, value in config.preamble_items()]


# Tables of fewer cells take `%` per cell (_format_rows): the numpy kernel's
# fixed cost, some hundred numpy calls, outweighs what it saves below this.
# Measured on 3 and 4 columns, both took about 0.25 ms at 384 cells; at 768
# the kernel took 0.35 ms and `%` 0.5 to 0.65 ms.
_KERNEL_MIN_CELLS = 400


def _format_rows(table: np.ndarray, labels=None) -> str:
    """The rows of table as CSV text from one `%` call, every cell `%.17g` on its own."""
    cells = ["%.17g"] * table.shape[1]
    rows = table.tolist()
    if labels is not None:
        cells = ["%s", *cells]
        rows = [[label, *row] for label, row in zip(labels, rows)]
    return ((",".join(cells) + "\n") * len(rows)) % tuple(v for row in rows for v in row)


def _write_csv(path: Path, head: list[str], table, labels=None) -> None:
    """Write the head lines, then one row per row of the 2-D float table.

    Every cell reads as format(v, ".17g"), 17 significant digits, which
    round-trips any double exactly. A table of _KERNEL_MIN_CELLS cells or
    more goes through the numpy kernel's _g17.write_table, imported then;
    other tables, and tables with labels, take one `%` call (_format_rows).
    labels, when given, lead each row as a string.
    """
    table = np.asarray(table, dtype=float)
    # A new file, not the old one truncated: rewriting an inode in place costs
    # more than unlinking it, and a hard link to the old output keeps its bytes.
    path.unlink(missing_ok=True)
    with path.open("wb") as fh:
        fh.write(("\n".join(head) + "\n").encode())
        if labels is None and table.size >= _KERNEL_MIN_CELLS:
            from . import _g17
            _g17.write_table(fh, table)
        else:
            fh.write(_format_rows(table, labels).encode())


def emit(report: RunReport, out_dir) -> list[Path]:
    """Write the report's CSVs and return their paths.

    A pattern goes to scan_<mode>.csv, a truth table to truth_table_<mode>.csv
    and its stderr, when it has one, to truth_table_<mode>_stderr.csv; a
    comparison CSV follows when two modes ran. Output is a pure function of
    the configuration, so repeated runs produce byte-identical files.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    preamble = _preamble(report.config)
    written: list[Path] = []
    for mode, pattern in report.patterns.items():
        if isinstance(pattern, TruthTable):
            header = "input," + ",".join(BASIS_LABELS)
            for which, suffix, table in (("values", "", pattern.values),
                                         ("stderr", "_stderr", pattern.stderr)):
                if table is not None:
                    path = out / f"truth_table_{mode}{suffix}.csv"
                    _write_csv(path, preamble + [f"# table={which}", header], table,
                               labels=BASIS_LABELS)
                    written.append(path)
            continue
        columns = [pattern.grid, pattern.values]
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


def _write_report(report: RunReport, args: argparse.Namespace) -> int:
    """Emit the report under --out, print what it wrote, its timings and
    comparisons, and report its condition problems."""
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


def cmd_scan(args: argparse.Namespace) -> int:
    return _write_report(run(_load_config(args)), args)


def cmd_truth_table(args: argparse.Namespace) -> int:
    return _write_report(run_table(_load_config(args)), args)


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
    metrics = report.comparisons["exact_vs_mc"]
    corrected = _corrected_pearson(metrics["pearson"], report.patterns["mc"])
    print(f"nrmse: {metrics['nrmse']:.6g}")
    print(f"pearson: {metrics['pearson']:.6g}")
    print(f"pearson_corrected: {corrected:.6g}")
    print(f"max_sigma_dev: {metrics['max_sigma_dev']:.6g}")
    failed = []
    if not metrics["max_sigma_dev"] <= 4.0:
        failed.append(f"max_sigma_dev {metrics['max_sigma_dev']:.6g} > 4")
    # compare_patterns gives no Pearson correlation when a pattern is flat.
    if math.isnan(metrics["pearson"]):
        print("pattern is flat; pearson criterion skipped")
    elif not corrected >= 0.99:
        failed.append(f"pearson_corrected {corrected:.6g} < 0.99")
    print("FAIL: " + "; ".join(failed) if failed else "PASS")
    status = _report_problems(report.problems, args.strict_conditions)
    return 1 if failed else status


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


# Command -> (handler, whether it takes --out and --mode, one-line help).
_COMMANDS = {
    "scan": (cmd_scan, True, "run the configured scan and write CSV patterns"),
    "truth-table": (cmd_truth_table, True, "write the 4x4 basis joint-probability table"),
    "verify": (cmd_verify, False, "compare the exact pattern against the ensemble"),
    "conditions": (cmd_conditions, False, "print condition margins for the configuration"),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of one command and its options; for any other name, the top-level parser."""

    def add_options(p: argparse.ArgumentParser, func, writes: bool) -> argparse.ArgumentParser:
        p.add_argument("--config", required=True, help="experiment file (INI)")
        if writes:
            p.add_argument("--out", default="out", help="output directory (default: out)")
            p.add_argument("--mode", choices=MODES, help="override the configured mode")
        p.add_argument("--seed", type=int, help="override the configured ensemble seed")
        p.add_argument("--strict-conditions", action="store_true",
                       help="exit with code 2 when condition margins are violated")
        p.set_defaults(func=func)
        return p

    if command in _COMMANDS:
        return add_options(_Parser(prog=f"ghostfringe {command}"), *_COMMANDS[command][:2])
    parser = _Parser(
        prog="ghostfringe",
        description="Correlation scans and gate truth tables for chaotic-light interferometers.",
        epilog=_DEFAULTS_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, writes, summary) in _COMMANDS.items():
        add_options(sub.add_parser(name, help=summary), func, writes)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    args = build_parser(command).parse_args(argv[1:] if command else argv)
    try:
        return args.func(args)
    except (ConfigError, OSError, ValueError) as exc:
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
    "run_table",
]
