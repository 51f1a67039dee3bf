"""Instance types, random generators, quantization, and JSON serialization.

A problem instance couples an ``n x d`` covariate matrix ``x`` with a response
vector ``y`` of length ``n``; responses are observed in an order scrambled by a
hidden permutation.  Anchored instances carry one extra measurement ``(x0, y0)``
whose pairing is the solver's to guess; they are the noiseless data of exact
recovery, so they hold exact rationals (``Fraction``), and a float goes in as
the rational it denotes.

Randomness contract: every generator derives three independent Philox streams
from the user seed via ``numpy.random.SeedSequence(seed).spawn(3)``.  Stream 0
drives the covariates, stream 1 the hidden permutation (Fisher-Yates via
``Generator.permutation``), stream 2 the noise.  Normal variates come from
numpy's Ziggurat sampler.  The same seed therefore reproduces bit-identical
instances, and each field can be regenerated without drawing the others.

JSON schema (one instance per file)::

    {"n": 3, "d": 2,
     "x": [[...], ...],            # n rows of d floats
     "y": [...],                   # n floats
     "anchor": {"x0": [...], "y0": ...},          # optional
     "truth": {"w_bar": [...], "pi_bar": [...], "sigma": ...}}  # optional

Files hold doubles, written with Python's shortest round-trip repr, so a
write/read cycle reproduces every entry bit-exactly; an anchored file's values
read back as the exact rationals their doubles denote.  The writer refuses,
before it opens the file, a value that no double holds exactly (a response on
a grid finer than a double's mantissa).  NaN and infinity are rejected in
both directions; ``truth`` stores ``sigma`` rather than an SNR so the noiseless
case needs no infinity sentinel.  Other keys (older files carry a
``quantization`` block) are ignored.
"""
from __future__ import annotations

import functools
import json
import math
import numbers
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

import numpy as np

from .errors import ParseError, SchemaError

__all__ = [
    "Permutation",
    "GroundTruth",
    "Instance",
    "AnchoredInstance",
    "InstanceRecord",
    "gen_gaussian_noisy",
    "gen_uniform_noisy",
    "gen_noiseless_anchored",
    "random_unit_vector",
    "responses",
    "quantize_value",
    "quantize_noiseless",
    "write_instance",
    "read_instance_record",
]


def _is_int(v) -> bool:
    # JSON true/false load as bool, a subclass of int
    return isinstance(v, int) and not isinstance(v, bool)


def _rational(v) -> Fraction:
    """The rational ``v`` denotes: ints, Fractions and numpy integers as they
    are, floats and numpy floats exactly (never rounded)."""
    if isinstance(v, numbers.Rational):
        return Fraction(v)
    if not math.isfinite(v):
        raise ValueError("non-finite entries")
    return Fraction(*v.as_integer_ratio())


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Permutation:
    """Bijection on ``{0, ..., m-1}`` stored as the mapping ``i -> map[i]``."""

    map: tuple[int, ...]

    def __post_init__(self):
        m = len(self.map)
        if m == 0:
            raise ValueError("empty permutation")
        if sorted(self.map) != list(range(m)):
            raise ValueError("map is not a bijection on 0..%d" % (m - 1))
        object.__setattr__(self, "map", tuple(int(v) for v in self.map))

    def __len__(self) -> int:
        return len(self.map)

    def __call__(self, i: int) -> int:
        return self.map[i]


@dataclass(frozen=True)
class GroundTruth:
    """Hidden parameters behind a generated instance."""

    w_bar: np.ndarray
    pi_bar: Permutation
    sigma: float

    def __post_init__(self):
        object.__setattr__(self, "w_bar", _readonly(self.w_bar))
        if not np.all(np.isfinite(self.w_bar)):
            raise ValueError("w_bar must be finite")
        if self.sigma < 0 or not math.isfinite(self.sigma):
            raise ValueError("sigma must be finite and >= 0")


def _check_xy(x: np.ndarray, y: np.ndarray):
    if x.ndim != 2 or y.ndim != 1:
        raise ValueError("x must be 2-d and y 1-d")
    n, d = x.shape
    if n == 0 or d == 0:
        raise ValueError("empty instance")
    if y.shape[0] != n:
        raise ValueError("y length %d does not match n=%d" % (y.shape[0], n))
    if not np.all(np.isfinite(x)) or not np.all(np.isfinite(y)):
        raise ValueError("non-finite entries")


@dataclass(frozen=True)
class Instance:
    """Covariates ``x`` (n rows, d columns) and scrambled responses ``y``."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        x = _readonly(self.x)
        y = _readonly(self.y)
        _check_xy(x, y)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def d(self) -> int:
        return self.x.shape[1]


@dataclass(frozen=True)
class AnchoredInstance:
    """``n`` scrambled measurements ``(x, y)`` plus one held-out measurement
    ``(x0, y0)`` of unknown pairing, all exact rationals.

    Each value is taken as the rational it denotes (see :func:`_rational`):
    ``x`` becomes a tuple of ``n >= 1`` rows of ``d >= 1`` Fractions, ``x0`` a
    tuple of ``d`` and ``y`` a tuple of ``n``.  Non-finite values and ragged
    shapes raise ``ValueError``.  For numpy work take a float view, such as
    ``np.array(inst.x, dtype=float)``.
    """

    x0: tuple[Fraction, ...]
    y0: Fraction
    x: tuple[tuple[Fraction, ...], ...]
    y: tuple[Fraction, ...]

    def __post_init__(self):
        x0 = tuple(_rational(v) for v in self.x0)
        x = tuple(tuple(_rational(v) for v in row) for row in self.x)
        y = tuple(_rational(v) for v in self.y)
        d = len(x0)
        if d < 1 or not x or len(y) != len(x) or any(len(r) != d for r in x):
            raise ValueError("need n >= 1 rows x of one length d >= 1, with len(x0) == d and len(y) == n")
        object.__setattr__(self, "x0", x0)
        object.__setattr__(self, "y0", _rational(self.y0))
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return len(self.x)

    @property
    def d(self) -> int:
        return len(self.x0)

    @functools.cached_property
    def cleared(self) -> tuple:
        """``(dx, dy, xs, ys)``: the instance over integers.

        ``dx`` is the least common denominator of the covariates, ``x0``
        included, and ``dy`` that of the responses, ``y0`` included; ``xs``
        holds the ``n + 1`` covariates times ``dx`` and ``ys`` the ``n + 1``
        responses times ``dy``, as ints, ``x0`` and ``y0`` first.  Since
        ``<w, x_j> = y_i`` exactly when ``<w dy / dx, dx x_j> = dy y_i``, the
        same pairings fit the cleared instance, with ``w`` scaled by
        ``dy / dx``.
        """
        xs, ys = (self.x0, *self.x), (self.y0, *self.y)
        dx = math.lcm(*(v.denominator for row in xs for v in row))
        dy = math.lcm(*(v.denominator for v in ys))
        return (
            dx,
            dy,
            tuple(tuple(v.numerator * (dx // v.denominator) for v in row) for row in xs),
            tuple(v.numerator * (dy // v.denominator) for v in ys),
        )

    @functools.cached_property
    def power_sums(self) -> tuple:
        """``(s, y1, g, y2)`` of the :attr:`cleared` instance, as ints, over
        all ``n + 1`` pairs, the anchor's included: ``s = sum_j x_j``, ``y1 =
        sum_i y_i``, the Gram matrix ``g = sum_j x_j x_j^T`` and ``y2 = sum_i
        y_i^2``.

        They do not depend on which covariate ``y0`` pairs with, so
        :func:`lattice.recover` computes them once and every anchor guess
        reads them.
        """
        _, _, xs, ys = self.cleared
        cols = list(zip(*xs))
        g = tuple(tuple(sum(map(operator.mul, ci, ck)) for ck in cols) for ci in cols)
        return tuple(map(sum, cols)), sum(ys), g, sum(v * v for v in ys)


def _streams(seed: int):
    sx, sp, se = np.random.SeedSequence(seed).spawn(3)
    return (
        np.random.Generator(np.random.Philox(sx)),
        np.random.Generator(np.random.Philox(sp)),
        np.random.Generator(np.random.Philox(se)),
    )


def random_unit_vector(d: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform draw from the unit sphere in R^d (Gaussian direction, normalized).

    Raises ``ValueError`` unless ``d >= 1``: R^0 has no unit vector.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    while True:
        v = rng.standard_normal(d)
        nrm = float(np.linalg.norm(v))
        if nrm > 1e-12:
            return v / nrm


def responses(x: np.ndarray, perm: Permutation, w: np.ndarray) -> np.ndarray:
    """Noise-free responses ``y_i = dot(w, x[perm(i)])``, one row dot per entry.

    Generators and verification code share this routine so the identity holds
    bit-exactly in doubles.
    """
    w = np.asarray(w, dtype=float)
    return np.array([float(np.dot(x[j], w)) for j in perm.map])


def _gen_noisy(w_bar, n, sigma, seed, draw_x):
    w_bar = np.asarray(w_bar, dtype=float)
    d = w_bar.shape[0]
    if n < 1 or d < 1:
        raise ValueError("n and d must be >= 1")
    if sigma < 0 or not math.isfinite(sigma):
        raise ValueError("sigma must be finite and >= 0")
    gx, gp, ge = _streams(seed)
    x = draw_x(gx, n, d)
    pi = Permutation(tuple(int(v) for v in gp.permutation(n)))
    y = responses(x, pi, w_bar)
    if sigma > 0:
        y = y + sigma * ge.standard_normal(n)
    inst = Instance(x=x, y=y)
    return inst, GroundTruth(w_bar=w_bar, pi_bar=pi, sigma=float(sigma))


def gen_gaussian_noisy(w_bar, n: int, sigma: float, seed: int):
    """Instance with i.i.d. standard normal covariate entries.

    Returns ``(Instance, GroundTruth)``.  With ``sigma = 0`` the identity
    ``y_i = dot(w_bar, x[pi_bar(i)])`` holds bit-exactly in doubles.
    """
    return _gen_noisy(w_bar, n, sigma, seed, lambda g, n_, d_: g.standard_normal((n_, d_)))


def gen_uniform_noisy(w_bar, n: int, sigma: float, seed: int):
    """Instance with covariate entries uniform on ``[-1/2, 1/2]``."""
    return _gen_noisy(w_bar, n, sigma, seed, lambda g, n_, d_: g.random((n_, d_)) - 0.5)


def gen_noiseless_anchored(w_bar, n: int, seed: int, *, anchored: bool = True):
    """Noise-free anchored instance with ``n + 1`` Gaussian covariates.

    The hidden permutation acts on ``{0, ..., n}``.  With ``anchored=True``
    (default) it fixes 0, i.e. the held-out response ``y0`` really pairs with
    ``x0``; the remaining ``n`` measurements are scrambled uniformly.  With
    ``anchored=False`` the permutation is uniform over all ``(n+1)!`` orders and
    ``pi_bar.map[0]`` records which covariate the anchor response pairs with.

    Returns ``(AnchoredInstance, GroundTruth)`` where ``truth.pi_bar`` lives on
    ``{0, ..., n}``: row ``i >= 1`` of the instance pairs with covariate index
    ``pi_bar(i)`` in the combined list ``[x0, x_1, ..., x_n]``.
    """
    w_bar = np.asarray(w_bar, dtype=float)
    d = w_bar.shape[0]
    if d < 1:
        raise ValueError("d must be >= 1")
    if n < d:
        raise ValueError("need n >= d (at least d + 1 measurements)")
    gx, gp, _ = _streams(seed)
    xs = gx.standard_normal((n + 1, d))
    if anchored:
        tail = gp.permutation(n) + 1
        pi = Permutation((0, *(int(v) for v in tail)))
    else:
        pi = Permutation(tuple(int(v) for v in gp.permutation(n + 1)))
    ys = responses(xs, pi, w_bar)
    inst = AnchoredInstance(x0=xs[0], y0=ys[0], x=xs[1:], y=ys[1:])
    return inst, GroundTruth(w_bar=w_bar, pi_bar=pi, sigma=0.0)


def quantize_value(v: Union[float, int, Fraction], p: int) -> Fraction:
    """Nearest multiple of ``2**-p`` with ties rounded half-to-even. Exact."""
    scaled = Fraction(v) * (1 << p)
    return Fraction(round(scaled), 1 << p)


def quantize_noiseless(inst: AnchoredInstance, truth: GroundTruth, p: int):
    """Quantize covariates and the hidden weights to the ``2**-p`` grid, then
    recompute responses.

    Rounding ``y`` directly would break the exact identity
    ``y_i = <w_bar, x_{pi_bar(i)}>`` that noiseless recovery relies on, so this
    variant rounds ``x0``, ``x`` and ``w_bar`` to the grid and rebuilds each
    response as the exact rational inner product (denominators ``2**-2p``).

    Returns ``(AnchoredInstance, w_q)`` with ``w_q`` the quantized weight
    vector as a tuple of Fractions.  A double rounded to a binary grid is
    again a double, so the values of ``x0``, ``x`` and ``w_q`` always are; a
    response on the ``2**-2p`` grid can need more bits than a double has, and
    :func:`write_instance` refuses it then.  Raises ``ValueError`` unless
    ``p`` is an integer ``>= 1``.
    """
    if not _is_int(p) or p < 1:
        raise ValueError("p must be an integer >= 1")
    if truth.sigma != 0:
        raise ValueError("requires a noiseless ground truth (sigma = 0)")
    w_q = tuple(quantize_value(v, p) for v in truth.w_bar)
    rows = [tuple(quantize_value(v, p) for v in inst.x0)]
    rows += [tuple(quantize_value(v, p) for v in row) for row in inst.x]
    pi = truth.pi_bar
    ys = [sum(wj * xj for wj, xj in zip(w_q, rows[pi(i)])) for i in range(len(pi))]
    return AnchoredInstance(x0=rows[0], y0=ys[0], x=rows[1:], y=ys[1:]), w_q


# ---------------------------------------------------------------------------
# JSON serialization


@dataclass(frozen=True)
class InstanceRecord:
    """The instance a file carries and its optional ground truth."""

    instance: Union[Instance, AnchoredInstance]
    truth: Optional[GroundTruth]


def _reject_constant(name):
    raise ParseError("non-finite literal %r not allowed" % name)


def _require(cond: bool, msg: str):
    if not cond:
        raise SchemaError(msg)


def _finite_float(v, what: str) -> float:
    """The double of a JSON number; ``SchemaError`` for a bool, a non-number,
    or an integer beyond the double range."""
    _require(isinstance(v, (int, float)) and not isinstance(v, bool), "%s must be a number" % what)
    try:
        v = float(v)
    except OverflowError:
        v = math.inf
    _require(math.isfinite(v), "%s must be finite" % what)
    return v


def _float_list(obj, what: str, length: int) -> list:
    _require(isinstance(obj, list) and len(obj) == length, "%s must be a list of length %d" % (what, length))
    return [_finite_float(v, "%s entry" % what) for v in obj]


def _double(v) -> float:
    """The double equal to ``v``; ``ValueError`` when no double holds ``v``."""
    try:
        f = float(v)
    except OverflowError:
        f = math.inf
    if f != v:  # exact: a float compares with an int or a Fraction by value
        raise ValueError("value %s not exactly representable as a double; reduce --p" % v)
    return f


def write_instance(path, inst, *, truth: Optional[GroundTruth] = None):
    """Write an instance (and its optional ground truth) as JSON.

    The whole document is serialized before the file is opened, so a value
    that cannot be written leaves no partial file.  Raises ``ValueError``
    when some value of ``inst`` is held exactly by no double, or some value
    is not finite.
    """
    doc = {
        "n": inst.n,
        "d": inst.d,
        "x": [[_double(v) for v in row] for row in inst.x],
        "y": [_double(v) for v in inst.y],
    }
    if isinstance(inst, AnchoredInstance):
        doc["anchor"] = {"x0": [_double(v) for v in inst.x0], "y0": _double(inst.y0)}
    if truth is not None:
        doc["truth"] = {
            "w_bar": [float(v) for v in truth.w_bar],
            "pi_bar": list(truth.pi_bar.map),
            "sigma": float(truth.sigma),
        }
    text = json.dumps(doc, allow_nan=False, indent=1) + "\n"
    with open(path, "w") as fh:
        fh.write(text)


def read_instance_record(path) -> InstanceRecord:
    """Parse an instance file, validating the schema field by field."""
    try:
        with open(path) as fh:
            doc = json.load(fh, parse_constant=_reject_constant)
    except json.JSONDecodeError as e:
        raise ParseError("invalid JSON: %s" % e) from e
    _require(isinstance(doc, dict), "top level must be an object")
    for key in ("n", "d", "x", "y"):
        _require(key in doc, "missing field %r" % key)
    n, d = doc["n"], doc["d"]
    _require(_is_int(n) and n >= 1, "n must be an integer >= 1")
    _require(_is_int(d) and d >= 1, "d must be an integer >= 1")
    _require(isinstance(doc["x"], list) and len(doc["x"]) == n, "x must have n rows")
    x = [_float_list(row, "x row", d) for row in doc["x"]]
    y = _float_list(doc["y"], "y", n)

    if "anchor" in doc:
        anc = doc["anchor"]
        _require(isinstance(anc, dict) and set(anc) == {"x0", "y0"}, "anchor must hold x0 and y0")
        x0 = _float_list(anc["x0"], "x0", d)
        y0 = _finite_float(anc["y0"], "y0")
        inst: Union[Instance, AnchoredInstance] = AnchoredInstance(x0=x0, y0=y0, x=x, y=y)
    else:
        inst = Instance(x=x, y=y)

    truth = None
    if "truth" in doc:
        t = doc["truth"]
        _require(isinstance(t, dict) and {"w_bar", "pi_bar", "sigma"} <= set(t), "truth must hold w_bar, pi_bar, sigma")
        w_bar = np.array(_float_list(t["w_bar"], "w_bar", d))
        m = n + 1 if "anchor" in doc else n
        pm = t["pi_bar"]
        _require(isinstance(pm, list) and len(pm) == m and all(_is_int(v) for v in pm), "pi_bar must be a list of %d integers" % m)
        try:
            pi = Permutation(tuple(pm))
        except ValueError as e:
            raise SchemaError("pi_bar: %s" % e) from e
        sigma = _finite_float(t["sigma"], "sigma")
        _require(sigma >= 0, "sigma must be >= 0")
        truth = GroundTruth(w_bar=w_bar, pi_bar=pi, sigma=sigma)

    return InstanceRecord(instance=inst, truth=truth)
