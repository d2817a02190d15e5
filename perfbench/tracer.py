"""In-memory span tracer that wraps ghostfringe's public functions from outside.

Functions are replaced on the module where their caller looks them up (for
example `ghostfringe.cli.estimate_dn_corr`, not `ghostfringe.montecarlo`), so
the package source stays untouched. Each wrapped call records one span: name,
start, end, parent span and op id. Spans live in flat arrays until `save`
writes them out; self times are derived from them afterwards. The tracer
assumes one thread, which holds while GHOSTFRINGE_THREADS is unset.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from array import array
from pathlib import Path

import numpy as np

# (module where the caller looks the name up, attribute, span name). The span
# name is the layer that defines the function, so calls reached through
# different modules add up under one name.
SPANS = (
    ("ghostfringe.cli", "parse_config", "cli.parse_config"),
    ("ghostfringe.cli", "emit", "cli.emit"),
    ("ghostfringe.cli", "conditions_report", "cli.conditions_report"),
    ("ghostfringe.cli", "evaluate_pattern", "patterns.evaluate_pattern"),
    ("ghostfringe.cli", "dn_corr_gate", "gate.dn_corr_gate"),
    ("ghostfringe.cli", "dn_corr_mz", "gate.dn_corr_mz"),
    ("ghostfringe.cli", "estimate_dn_corr", "montecarlo.estimate_dn_corr"),
    ("ghostfringe.cli", "estimate_truth_table", "montecarlo.estimate_truth_table"),
    ("ghostfringe.cli", "compare_patterns", "montecarlo.compare_patterns"),
    ("ghostfringe.patterns", "dn_corr_basic", "analytic.dn_corr_basic"),
    ("ghostfringe.patterns", "dn_corr_gate", "gate.dn_corr_gate"),
    ("ghostfringe.patterns", "dn_corr_mz", "gate.dn_corr_mz"),
    ("ghostfringe.analytic", "g1_pair", "analytic.g1_pair"),
    ("ghostfringe.gate", "g1_pair", "analytic.g1_pair"),
    ("ghostfringe.montecarlo", "envelope_power", "gate.envelope_power"),
    ("ghostfringe.montecarlo", "sample_realization", "montecarlo.sample_realization"),
)

# Cheap leaf functions that are counted but get no span.
COUNTS = (
    ("ghostfringe.analytic", "sinc", "core.sinc"),
    ("ghostfringe.gate", "sinc", "core.sinc"),
)

DRAW_SPAN = "montecarlo.sample_realization"
EMIT_SPAN = "cli.emit"


class Tracer:
    """Span and count recorder for one worker process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._name = array("i")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("i")
        self._op = array("i")
        self._stack: list[int] = []
        self._current_op = -1
        self._counts: dict[tuple[int, str], int] = {}
        # (span index, seed, realization index) of every draw.
        self._draw_span = array("q")
        self._draw_seed = array("q")
        self._draw_index = array("q")
        self.emit_bytes: dict[int, int] = {}
        self.unwrapped: list[str] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name_id: int) -> int:
        index = len(self._start)
        self._name.append(name_id)
        self._parent.append(self._stack[-1] if self._stack else -1)
        self._op.append(self._current_op)
        self._end.append(0.0)
        self._stack.append(index)
        self._start.append(time.perf_counter())
        return index

    def _close(self, index: int) -> None:
        self._end[index] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around the block, used for ops and CLI calls."""
        index = self._open(self._name_id(name))
        try:
            yield
        finally:
            self._close(index)

    def set_op(self, op_id: int) -> None:
        self._current_op = op_id

    def _count(self, name: str) -> None:
        key = (self._current_op, name)
        self._counts[key] = self._counts.get(key, 0) + 1

    def _wrap_span(self, fn, name: str):
        name_id = self._name_id(name)
        draw = name == DRAW_SPAN
        emit = name == EMIT_SPAN

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if draw:
                self._draw_span.append(self._parent[index])
                self._draw_seed.append(result.seed)
                self._draw_index.append(result.index)
            if emit:
                size = sum(Path(p).stat().st_size for p in result)
                self.emit_bytes[self._current_op] = self.emit_bytes.get(self._current_op, 0) + size
            return result

        return wrapper

    def _wrap_count(self, fn, name: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._count(name)
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Replace every listed function at its lookup site.

        A lookup site that no longer exists is skipped and listed in
        `unwrapped`, so its counts read 0 instead of the run failing.
        """
        for table, wrap in ((SPANS, self._wrap_span), (COUNTS, self._wrap_count)):
            for module_name, attr, name in table:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr, None)
                if not callable(fn):
                    self.unwrapped.append(f"{module_name}.{attr}")
                    continue
                setattr(module, attr, wrap(fn, name))

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self._name, dtype=np.int32),
            "start": np.frombuffer(self._start, dtype=np.float64),
            "end": np.frombuffer(self._end, dtype=np.float64),
            "parent": np.frombuffer(self._parent, dtype=np.int32),
            "op": np.frombuffer(self._op, dtype=np.int32),
            "draw_span": np.frombuffer(self._draw_span, dtype=np.int64),
            "draw_seed": np.frombuffer(self._draw_seed, dtype=np.int64),
            "draw_index": np.frombuffer(self._draw_index, dtype=np.int64),
        }

    def save(self, path: Path) -> None:
        """Write all spans and draw keys to an .npz file."""
        np.savez(path, names=np.array(self.names), **self.arrays())

    def per_op(self, op_ids) -> dict[int, dict[str, float]]:
        """Per-op totals: '<span>.calls', '<span>.total_s', '<span>.self_s',
        '<count>.calls', 'draw_distinct' and 'emit_bytes'.

        A span's self time is its duration minus the durations of its direct
        child spans.
        """
        a = self.arrays()
        duration = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(
            a["parent"][has_parent], weights=duration[has_parent], minlength=duration.size
        )
        self_time = duration - child
        draw_op = a["op"][a["draw_span"]] if a["draw_span"].size else a["draw_span"]
        out: dict[int, dict[str, float]] = {}
        for op_id in op_ids:
            stats: dict[str, float] = {}
            in_op = a["op"] == op_id
            for name_id, name in enumerate(self.names):
                mask = in_op & (a["name"] == name_id)
                stats[f"{name}.calls"] = int(mask.sum())
                stats[f"{name}.total_s"] = float(duration[mask].sum())
                stats[f"{name}.self_s"] = float(self_time[mask].sum())
            for (count_op, name), calls in self._counts.items():
                if count_op == op_id:
                    stats[f"{name}.calls"] = calls
            keys = np.stack([
                a["draw_span"][draw_op == op_id],
                a["draw_seed"][draw_op == op_id],
                a["draw_index"][draw_op == op_id],
            ], axis=1)
            stats["draw_distinct"] = int(np.unique(keys, axis=0).shape[0]) if keys.size else 0
            stats["emit_bytes"] = self.emit_bytes.get(op_id, 0)
            out[op_id] = stats
        return out

