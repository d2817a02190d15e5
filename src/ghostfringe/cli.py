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
import difflib
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
    check_ensemble_size,
    compare_patterns,
    estimate_dn_corr,
    estimate_truth_table,
)
from .patterns import SCAN_AXES, evaluate_pattern, make_grid

MODES = ("exact", "asymptotic", "mc", "all")

_SETUP_CLASSES = {"basic": SetupBasic, "gate": SetupGate, "mz": SetupMZ}
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

    kind: str
    setup: SetupBasic | SetupGate | SetupMZ
    angles: GateAngles | None
    axis: str = _option("scan", "diagonal", SCAN_AXES)
    start: float = _option("scan", -2.0e-4)
    stop: float = _option("scan", 2.0e-4)
    step: float = _option("scan", 5.0e-6)
    detector_x: float = _option("scan", 0.0)
    mode: str = _option("run", "exact", MODES)
    n_realizations: int = _option("mc", 10000)
    n_emitters: int = _option("mc", 256)
    seed: int = _option("mc", 0)

    def preamble_items(self) -> list[tuple[str, object]]:
        """Canonical (key, value) pairs capturing the whole configuration.

        `kind`, then the fields of the setup, of the angles when there are
        any, and the scan, run and mc fields, each in field order.
        """
        parts = (self.setup, self.angles) if self.angles is not None else (self.setup,)
        items: list[tuple[str, object]] = [("kind", self.kind)]
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
    """Everything one run produced: patterns per mode, violations, metrics, timings."""

    config: ExperimentConfig
    patterns: dict[str, CorrelationPattern]
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
    return ExperimentConfig(kind=kind, setup=setup, angles=angles, **options)


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


def _each_mode(config: ExperimentConfig, evaluate) -> tuple[dict, dict[str, float]]:
    """evaluate(mode) for every configured mode, and the seconds each took.

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
    return results, timings


def run(config: ExperimentConfig) -> RunReport:
    """Evaluate the configured scan in every requested mode."""
    grid = make_grid(config.axis, config.start, config.stop, config.step, config.detector_x)

    def evaluate(mode: str) -> CorrelationPattern:
        if mode == "mc":
            return estimate_dn_corr(
                config.setup, grid, config.n_realizations, config.seed,
                angles=config.angles, n_emitters=config.n_emitters,
            )
        return evaluate_pattern(config.setup, grid, mode, angles=config.angles)

    patterns, timings = _each_mode(config, evaluate)

    comparisons: dict[str, dict[str, float]] = {}
    for mode in ("exact", "asymptotic"):
        if mode in patterns and "mc" in patterns:
            comparisons[f"{mode}_vs_mc"] = compare_patterns(patterns[mode], patterns["mc"])
    if "exact" in patterns and "asymptotic" in patterns:
        comparisons["exact_vs_asymptotic"] = compare_patterns(
            patterns["exact"], patterns["asymptotic"]
        )

    _, problems = conditions_report(config, grid)
    return RunReport(
        config=config, patterns=patterns, comparisons=comparisons, problems=problems,
        timings=timings,
    )


def _preamble(config: ExperimentConfig) -> list[str]:
    return [f"# {key}={value!r}" if isinstance(value, float) else f"# {key}={value}"
            for key, value in config.preamble_items()]


# Rows per block: enough that the per-call costs of `%` and numpy vanish, few
# enough that one block's cells and scratch arrays (about 1.8 MB for an x, x,
# value scan) stay small however long the table is. Of 1024 to 8192, 2048 was
# the fastest on an 8001-row scan.
_ROWS_PER_BLOCK = 2048
# Blocks of fewer cells take `%` per cell (_format_rows): the numpy kernel's
# fixed cost, some hundred numpy calls, outweighs what it saves below this.
# Measured on 3 and 4 columns, both took about 0.25 ms at 384 cells; at 768
# the kernel took 0.35 ms and `%` 0.5 to 0.65 ms.
_KERNEL_MIN_CELLS = 400

# The `%.17g` kernel (_format_block). A finite double v with
# 1e-6 <= |v| < 1e17 has a decimal exponent E in _E_MIN.._E_MAX, and
# format(v, ".17g") writes the 17 digits of D = round-half-even(|v| *
# 10**(16 - E)) less their trailing zeros: in fixed notation from E = -4 up,
# as d.ddde-05 or d.ddde-06 below. Each cell's layout (point, exponent,
# length) is a table row picked by E and its count of significant digits.
# Every other cell (0, nan, inf, subnormals, |v| < 1e-6 or >= 1e17) is
# formatted on its own with `%.17g`.
_E_MIN, _E_MAX = -6, 16
_DECADES = np.arange(_E_MIN, _E_MAX + 1)
# 10**(16 - E), exact doubles up to 10**22, and their halves split at 27 bits.
_POW = np.array([float(10**k) for k in range(16 - _E_MIN, 15 - _E_MAX, -1)])
_SPLIT = 2.0**27 + 1.0
_POW_HI = _POW * _SPLIT
_POW_HI -= _POW_HI - _POW
_POW_LO = _POW - _POW_HI
# D * 10**s written as 24 digits has 7 - s leading zeros: fixed notation
# below 1 needs -E of them ("0." and -E - 1 zeros), every other layout none.
_ZERO_SHIFT = 10 ** (7 - np.where((_DECADES < 0) & (_DECADES >= -4), -_DECADES, 0)).astype(np.int64)

_QUADS = np.arange(10000, dtype=np.uint16)
# The four ASCII digits of every 4-digit group as one uint32; _DASHES indexes "----".
_DASHES = 10000
_QUAD_CHARS = np.full((_DASHES + 1, 4), ord("-"), dtype=np.uint8)
_QUAD_CHARS[:_DASHES] = _QUADS[:, None] // np.array([1000, 100, 10, 1], np.uint16) % 10 + ord("0")
_QUAD_CHARS = _QUAD_CHARS.view(np.uint32).ravel()
_TRAILING_ZEROS = ((_QUADS % 10 == 0).astype(np.int64) + (_QUADS % 100 == 0)
                   + (_QUADS % 1000 == 0) + (_QUADS == 0))

# Each cell fills a 32-byte slot: its sign in byte 0, its body from byte 1,
# its separator right after the body. _NOWHERE is a body index no cell keeps.
_SLOT = 32
_NOWHERE = _SLOT - 2


def _layouts():
    """Body length, point index and shift mask per layout code (E - _E_MIN) * 18 + digits.

    A body is the 24 digits of D * 10**s, each moved one byte right from the
    point on: the mask is 255 on the slot bytes before the point.
    """
    e = _DECADES[:, None]
    n = np.arange(18)[None, :]
    fixed, small = e >= 0, (e < 0) & (e >= -4)
    length = np.where(fixed, np.maximum(n, e + 1) + (n > e + 1),
                      np.where(small, 1 - e + n, n + (n > 1) + 4))
    point = np.where(fixed, np.where(n > e + 1, e + 1, _NOWHERE),
                     np.where(small | (n > 1), 1, _NOWHERE))
    unmoved = (np.arange(_SLOT) < 1 + point[:, :, None]) * np.uint8(255)
    return (length.ravel().astype(np.intp), point.ravel().astype(np.intp),
            unmoved.reshape(-1, _SLOT))


_BODY_LENGTH, _POINT, _UNMOVED = _layouts()
# The slot bytes a cell keeps, by 2 * (body length + 1) + sign: its body and
# separator from byte 1, and byte 0 when it holds the sign.
_KEEP = ((np.arange(_SLOT) <= np.arange(_SLOT + 1)[:, None, None])
         & ((np.arange(_SLOT) > 0) | (np.arange(2) > 0)[:, None])).reshape(-1, _SLOT)


class _Cells:
    """Scratch arrays for _format_block on row blocks of up to `rows` rows of one table.

    first[j] is the first column whose bits equal column j's: each distinct
    column is formatted once, and its slots are copied to every position.
    """

    def __init__(self, rows: int, first: list[int]):
        self.unique = sorted(set(first))
        self.positions = [self.unique.index(j) for j in first]
        self.repeats = self.positions != list(range(len(first)))
        k, cells = rows * len(self.unique), rows * len(first)
        parts = {
            "floats": ((7, k), np.float64), "ints": ((6, k), np.int64),
            "index": ((4, k), np.intp), "flags": ((4, k), bool), "quads": ((6, k), np.intp),
            "quad_chars": ((8, k), np.uint32), "chars": ((k, 8), np.uint32),
            "mask": ((k, _SLOT), np.uint8), "slots": ((k, _SLOT), np.uint8),
            "keep": ((cells, _SLOT), bool),
        }
        if self.repeats:
            parts.update(all_slots=((cells, _SLOT), np.uint8), lengths=((cells,), np.intp),
                         signs=((cells,), bool))
        # One allocation carved into every scratch array: freed whole, it
        # stays in the heap for the next table instead of going back to the
        # OS, so writing it again does not fault its pages in anew.
        sizes = [-(-np.prod(shape) * np.dtype(dtype).itemsize // 64) * 64
                 for shape, dtype in parts.values()]
        memory = np.empty(sum(sizes), dtype=np.uint8)
        for (name, (shape, dtype)), end, size in zip(parts.items(), np.cumsum(sizes), sizes):
            setattr(self, name, memory[end - size:end].view(dtype)[:np.prod(shape)].reshape(shape))
        if not self.repeats:
            self.all_slots = self.slots
        self.quad_chars[[0, 7]] = _QUAD_CHARS[_DASHES]
        separators = np.full(len(first), ord(","), dtype=np.uint8)
        separators[-1] = ord("\n")
        self.separators = np.tile(separators, rows)
        self.starts = np.arange(1, cells * _SLOT, _SLOT)


def _exact_digits(a, i, floats, ints, flags):
    """D = round-half-even(a * 10**(16 - E)) for E = _DECADES[i], and whether D has 17 digits.

    a * 10**(16 - E) is the double hi plus its rounding error err, exactly:
    Dekker's two-product (Dekker 1971). hi >= 2**53 is an even integer, so D
    is hi + rint(err), ties and decade boundaries included. floats, ints and
    flags are 5, 2 and 2 scratch rows of a's length.
    """
    p, hi, a_hi, a_lo, err = floats
    d, rounded = ints
    ok, edge = flags
    _POW.take(i, out=p)
    np.multiply(a, p, out=hi)
    np.multiply(a, _SPLIT, out=a_hi)
    np.subtract(a_hi, a, out=a_lo)
    a_hi -= a_lo
    np.subtract(a, a_hi, out=a_lo)
    _POW_HI.take(i, out=p)
    np.multiply(a_hi, p, out=err)
    err -= hi
    p *= a_lo
    err += p
    _POW_LO.take(i, out=p)
    a_hi *= p
    err += a_hi
    p *= a_lo
    err += p
    d[...] = hi
    np.rint(err, out=p)
    rounded[...] = p
    d += rounded
    # 17 digits: D < 10**17, and 10**16 <= hi + err, which at D = 10**16 needs err >= 0.
    np.greater(d, 10**16, out=ok)
    np.equal(d, 10**16, out=edge)
    edge &= err >= 0
    ok |= edge
    np.less(d, 10**17, out=edge)
    ok &= edge
    return d, ok


def _significant_digits(d, ints):
    """Digits of the 17-digit integers d before their trailing zeros; ints: 3 scratch rows."""
    quotient, rest, n = ints
    np.floor_divide(d, 10**4, out=quotient)
    np.multiply(quotient, 10**4, out=rest)
    np.subtract(d, rest, out=rest)
    _TRAILING_ZEROS.take(rest, out=n, mode="clip")
    np.subtract(17, n, out=n)
    # Where the last four digits are zeros, the four before them may be too.
    at = np.flatnonzero(rest == 0)
    higher = quotient[at]
    while at.size:
        quotient = higher // 10**4
        rest = higher - quotient * 10**4
        n[at] -= _TRAILING_ZEROS[rest]
        more = rest == 0
        at, higher = at[more], quotient[more]
    return n


def _format_block(block: np.ndarray, w: _Cells) -> np.ndarray:
    """The CSV bytes of the rows of block, each cell as format(v, ".17g"), as uint8."""
    n = len(block)
    k, cells = n * len(w.unique), n * len(w.positions)
    v, a, scratch = w.floats[0, :k], w.floats[1, :k], w.floats[2:, :k]
    for at, j in enumerate(w.unique):
        v.reshape(n, -1)[:, at] = block[:, j]
    inside, outside = w.flags[:2, :k]
    np.absolute(v, out=a)
    np.greater_equal(a, 1e-6, out=inside)
    np.less(a, 1e17, out=outside)
    inside &= outside
    np.logical_not(inside, out=outside)
    raw = np.flatnonzero(outside)
    a[raw] = 1.0
    i = w.index[0, :k]
    np.log10(a, out=scratch[0])
    np.floor(scratch[0], out=scratch[0])
    i[...] = scratch[0]
    i -= _E_MIN
    np.maximum(i, 0, out=i)
    np.minimum(i, len(_DECADES) - 1, out=i)
    d, ok = _exact_digits(a, i, scratch, w.ints[:2, :k], w.flags[2:, :k])
    if not ok.all():
        # log10 missed the decade, or D rounded up to 10**17: one decade down
        # or up mends either, unless it leaves _E_MIN.._E_MAX.
        bad = np.flatnonzero(~ok)
        decade = i[bad] + np.where(d[bad] >= 10**17, 1, -1)
        i[bad] = np.clip(decade, 0, len(_DECADES) - 1)
        m = bad.size
        d[bad], ok[bad] = _exact_digits(a[bad], i[bad], np.empty((5, m)),
                                        np.empty((2, m), dtype=np.int64),
                                        np.empty((2, m), dtype=bool))
        ok[bad] &= (decade >= 0) & (decade < len(_DECADES))
        inside &= ok
        np.logical_not(inside, out=outside)
        raw = np.flatnonzero(outside)
        d[raw] = 10**16
    code = w.index[1, :k]
    np.multiply(i, 18, out=code)
    code += _significant_digits(d, w.ints[2:5, :k])

    # The 24 digits of D * 10**s in six 4-digit groups, from three 8-digit parts.
    high, low, shift, top = w.ints[2:, :k]
    np.floor_divide(d, 10**8, out=high)
    np.multiply(high, 10**8, out=low)
    np.subtract(d, low, out=low)
    _ZERO_SHIFT.take(i, out=shift)
    low *= shift
    high *= shift
    np.floor_divide(low, 10**8, out=top)
    high += top
    top *= 10**8
    low -= top
    np.floor_divide(high, 10**8, out=top)
    np.multiply(top, 10**8, out=shift)
    high -= shift
    quads, quad_chars = w.quads[:, :k], w.quad_chars[:, :k]
    for row, part in zip((0, 2, 4), (top, high, low)):
        np.floor_divide(part, 10**4, out=quads[row])
        np.multiply(quads[row], 10**4, out=quads[row + 1])
        np.subtract(part, quads[row + 1], out=quads[row + 1])
        for r in (row, row + 1):
            _QUAD_CHARS.take(quads[r], out=quad_chars[r + 1], mode="clip")
    np.copyto(w.chars[:k], quad_chars.T)

    # Slot byte x takes chars byte x + 3 before the point and x + 2 from it
    # on: byte 3 is a dash, the sign, and the digits start at byte 4.
    chars = w.chars[:k].view(np.uint8).reshape(-1)
    slots = w.slots[:k].reshape(-1)
    unmoved, moved, text = chars[3:], chars[2:-1], slots[:-3]
    np.bitwise_xor(unmoved, moved, out=text)
    mask = w.mask[:k]
    np.take(_UNMOVED.view(np.uint64), code, axis=0, out=mask.view(np.uint64), mode="clip")
    text &= mask.reshape(-1)[:-3]
    text ^= moved
    starts, at = w.starts[:k], w.index[2, :k]
    _POINT.take(code, out=at, mode="clip")
    at += starts
    slots[at] = ord(".")
    length = _BODY_LENGTH.take(code, out=w.index[3, :k], mode="clip")
    exponent = np.flatnonzero(i < -4 - _E_MIN)
    if exponent.size:
        at = starts[exponent] + length[exponent] - 4
        slots[at] = ord("e")
        slots[at + 1] = ord("-")
        slots[at + 2] = ord("0")
        slots[at + 3] = ord("0") - _E_MIN - i[exponent]
    sign = np.signbit(v, out=w.flags[3, :k])
    if raw.size:
        # A raw cell's text fills its slot from byte 0, sign included.
        chars = np.frombuffer(("%.17g\n" * raw.size % tuple(v[raw].tolist())).encode(), np.uint8)
        cut = np.flatnonzero(chars == ord("\n"))
        raw_length = np.diff(cut, prepend=-1) - 1
        before = cut - raw_length - np.arange(raw.size)  # text bytes of earlier raw cells
        slots[np.repeat(raw * _SLOT - before, raw_length) + np.arange(len(chars) - raw.size)] = \
            chars[chars != ord("\n")]
        sign[raw] = True
        length[raw] = raw_length - 1

    if w.repeats:
        shape = (n, -1, _SLOT // 8)
        np.take(w.slots[:k].view(np.uint64).reshape(shape), w.positions, axis=1,
                out=w.all_slots[:cells].view(np.uint64).reshape(shape), mode="clip")
        length = np.take(length.reshape(n, -1), w.positions, axis=1,
                         out=w.lengths[:cells].reshape(n, -1)).reshape(-1)
        sign = np.take(sign.reshape(n, -1), w.positions, axis=1,
                       out=w.signs[:cells].reshape(n, -1)).reshape(-1)
    slots = w.all_slots[:cells].reshape(-1)
    slots[w.starts[:cells] + length] = w.separators[:cells]
    length += 1
    length *= 2
    length += sign
    keep = w.keep[:cells]
    np.take(_KEEP.view(np.uint64), length, axis=0, out=keep.view(np.uint64), mode="clip")
    return slots[keep.reshape(-1)]


def _format_rows(block: np.ndarray, labels=None) -> str:
    """The rows of block as CSV text from one `%` call, every cell `%.17g` on its own."""
    cells = ["%.17g"] * block.shape[1]
    rows = block.tolist()
    if labels is not None:
        cells = ["%s", *cells]
        rows = [[label, *row] for label, row in zip(labels, rows)]
    return ((",".join(cells) + "\n") * len(rows)) % tuple(v for row in rows for v in row)


def _write_csv(path: Path, head: list[str], table, labels=None) -> None:
    """Write the head lines, then one row per row of the 2-D float table.

    Every cell reads as format(v, ".17g"), 17 significant digits, which
    round-trips any double exactly. Blocks of _KERNEL_MIN_CELLS cells or more
    go through the numpy kernel _format_block, which writes those bytes itself
    for 1e-6 <= |v| < 1e17 and formats every other cell on its own; smaller
    blocks, and tables with labels, take one `%` call per block
    (_format_rows). labels, when given, lead each row as a string.

    On the kernel path, a column whose float64 bits equal an earlier column's
    (x_T on a diagonal scan) is formatted once per block and copied to every
    position that repeats it. The test is on bits, not `==`: -0.0 and 0.0
    compare equal but print as `-0` and `0`, so only bit equality keeps every
    output byte.
    """
    table = np.asarray(table, dtype=float)
    bits = table.view(np.uint64)
    first = [next(i for i in range(j + 1) if np.array_equal(bits[:, i], bits[:, j]))
             for j in range(table.shape[1])]
    cells = None
    # A new file, not the old one truncated: rewriting an inode in place costs
    # more than unlinking it, and a hard link to the old output keeps its bytes.
    path.unlink(missing_ok=True)
    with path.open("w") as fh:
        fh.write("\n".join(head) + "\n")
        for start in range(0, len(table), _ROWS_PER_BLOCK):
            block = table[start:start + _ROWS_PER_BLOCK]
            if labels is None and block.size >= _KERNEL_MIN_CELLS:
                cells = cells or _Cells(len(block), first)
                fh.write(str(_format_block(block, cells), "ascii"))
            else:
                lead = None if labels is None else labels[start:start + len(block)]
                fh.write(_format_rows(block, lead))


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


def _write_table(path: Path, preamble: list[str], table: TruthTable, which: str) -> None:
    _write_csv(
        path, preamble + [f"# table={which}", "input," + ",".join(BASIS_LABELS)],
        table.values if which == "values" else table.stderr, labels=BASIS_LABELS,
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

    def evaluate(mode: str) -> TruthTable:
        if mode == "mc":
            return estimate_truth_table(
                config.setup, x_c, x_t, config.n_realizations, config.seed,
                n_emitters=config.n_emitters,
            )
        values = closed_form(basis_table(config.setup), x_c, x_t, mode)
        return TruthTable(values=values.reshape(4, 4))

    tables, _ = _each_mode(config, evaluate)
    written: list[Path] = []
    for mode, table in tables.items():
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
]
