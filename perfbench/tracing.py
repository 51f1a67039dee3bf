"""Span tracing for the benchmark's traced runs.

The tracer replaces a fixed set of package functions with wrappers for the
duration of one traced pass and restores the originals afterwards.  Each
wrapper records one span: name, start, end, the span that called it (parent
link) and the operation it belongs to.  Spans stay in memory; ``layer_metrics``
turns one pass's spans into per-layer times and work counts.

Wrappers go where the code looks names up at call time.  ``cli`` and
``approx`` import some functions by name, so those are patched on the
importing module; the lattice pipeline calls its own module globals.
"""
from __future__ import annotations

import functools
import importlib
import time


def _lll_input(args, kwargs):
    basis = args[0] if args else kwargs["basis"]
    bits = max(abs(v).bit_length() for col in basis.columns for v in col)
    return {"dim": basis.dim, "input_bits": bits}


def _sampled_rows(result):
    return {"rows": len({e[0] for e in result.rows if e is not None})}


def _is_none(result):
    return {"none": int(result is None)}


# (module the caller looks the name up in, attribute, span name,
#  attributes read from the arguments before the timed call,
#  attributes read from the result after it)
WRAP_TABLE = (
    ("cli", "main", "cli.main", None, None),
    ("cli", "read_instance_record", "model.read_instance_record", None, None),
    ("cli", "gen_gaussian_noisy", "model.gen_gaussian_noisy", None, None),
    ("cli", "ols_given_perm", "oracle.ols_given_perm", None, None),
    ("cli", "fptas_solve", "approx.fptas_solve", None, None),
    ("approx", "orthonormalize", "approx.orthonormalize", None, None),
    ("approx", "row_sample", "rowsample.row_sample", None, _sampled_rows),
    ("approx", "sort_match", "perm1d.sort_match", None, None),
    ("lattice", "recover", "lattice.recover", None, _is_none),
    ("lattice", "find_permutation", "lattice.find_permutation", None, _is_none),
    ("lattice", "epsilon_bound", "lattice.epsilon_bound", None, None),
    ("lattice", "build_sources", "lattice.build_sources", None, None),
    ("lattice", "subset_sum_basis", "lattice.subset_sum_basis", None, None),
    ("lattice", "lll_reduce", "lattice.lll_reduce", _lll_input, None),
)

SPAN_NAMES = tuple(row[2] for row in WRAP_TABLE)

# Spans with wrapped children; the others are leaves whose self time is ``s``.
SELF_TIMED = ("cli.main", "approx.fptas_solve", "lattice.recover", "lattice.find_permutation")

_MARK = "_perfbench_span"


def targets():
    """``(module, attribute)`` for every function the tracer patches."""
    return [(importlib.import_module("shuffle_regress." + mod), attr) for mod, attr, *_ in WRAP_TABLE]


def is_patched(fn) -> bool:
    return hasattr(fn, _MARK)


class Span:
    __slots__ = ("sid", "parent", "op", "name", "start", "end", "attrs", "error")

    def __init__(self, sid, parent, op, name):
        self.sid = sid
        self.parent = parent
        self.op = op
        self.name = name
        self.start = self.end = 0.0
        self.attrs = {}
        self.error = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans while installed; ``op`` tags spans with the operation index."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = None
        self._stack: list[int] = []
        self._saved: list = []

    def _wrap(self, name, fn, pre, post):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(len(self.spans), parent, self.op, name)
            if pre is not None:
                span.attrs.update(pre(args, kwargs))
            self.spans.append(span)
            self._stack.append(span.sid)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as e:
                span.error = type(e).__name__
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if post is not None:
                span.attrs.update(post(result))
            return result

        setattr(wrapper, _MARK, name)
        return wrapper

    def __enter__(self):
        for (mod, attr), (_, _, name, pre, post) in zip(targets(), WRAP_TABLE):
            orig = getattr(mod, attr)
            self._saved.append((mod, attr, orig))
            setattr(mod, attr, self._wrap(name, orig, pre, post))
        return self

    def __exit__(self, *exc):
        while self._saved:
            mod, attr, orig = self._saved.pop()
            setattr(mod, attr, orig)
        return False


def layer_metrics(spans) -> dict:
    """Per-layer totals of one pass: ``calls`` and ``s`` for every span name,
    ``self_s`` (duration minus the direct children's durations) for the spans
    in ``SELF_TIMED``, plus the work counts and ratios the workloads are read
    by."""
    child_s = {}
    for sp in spans:
        if sp.parent is not None:
            child_s[sp.parent] = child_s.get(sp.parent, 0.0) + sp.duration
    out = {}
    for name in SPAN_NAMES:
        out[name + ".calls"] = 0
        out[name + ".s"] = 0.0
    for name in SELF_TIMED:
        out[name + ".self_s"] = 0.0
    out.update({
        "approx.fptas_solve.refused": 0,
        "rowsample.row_sample.rows": 0,
        "lattice.recover.none": 0,
        "lattice.find_permutation.none": 0,
        "lattice.lll_reduce.dim.max": 0,
        "lattice.lll_reduce.input_bits.max": 0,
    })
    for sp in spans:
        out[sp.name + ".calls"] += 1
        out[sp.name + ".s"] += sp.duration
        if sp.name in SELF_TIMED:
            out[sp.name + ".self_s"] += sp.duration - child_s.get(sp.sid, 0.0)
        if sp.name == "approx.fptas_solve" and sp.error == "BudgetExceededError":
            out["approx.fptas_solve.refused"] += 1
        elif sp.name == "rowsample.row_sample" and "rows" in sp.attrs:
            out["rowsample.row_sample.rows"] += sp.attrs["rows"]
        elif sp.name in ("lattice.recover", "lattice.find_permutation"):
            out[sp.name + ".none"] += sp.attrs.get("none", 0)
        elif sp.name == "lattice.lll_reduce":
            for key in ("dim", "input_bits"):
                full = "lattice.lll_reduce.%s.max" % key
                out[full] = max(out[full], sp.attrs[key])
    guesses = out["lattice.find_permutation.calls"]
    verified = out["lattice.recover.calls"] - out["lattice.recover.none"]
    out["lattice.guess_hit_ratio"] = verified / guesses if guesses else 0.0
    return out


COUNT_KEYS = tuple(
    [n + ".calls" for n in SPAN_NAMES]
    + [
        "approx.fptas_solve.refused",
        "rowsample.row_sample.rows",
        "lattice.recover.none",
        "lattice.find_permutation.none",
        "lattice.lll_reduce.dim.max",
        "lattice.lll_reduce.input_bits.max",
        "lattice.guess_hit_ratio",
    ]
)
