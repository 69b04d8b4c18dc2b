"""Concrete groups of polynomial growth with periodic metrics.

Three desk-scale models are shipped: Euclidean R^d with Lebesgue measure, and
the integer lattice Z^d and the discrete Heisenberg group H3(Z) in normal
form, each with counting measure.  On top of them sit metric balls about the
identity (word and gauge balls alike one interval of the last coordinate per
column, sized exactly from their columns before any element is built, and
kept as those columns), growth-exponent and annular-decay diagnostics, and
Folner ratios.  Translates x K are the callers' business: the counting code
moves its centres, not its balls, and no element is ever measured on its
own.  The finite model's torus Z_N x Z_N keeps its word balls in
reps.torus_ball.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

DEFAULT_BALL_BUDGET = 5_000_000
BUDGET_ENV_VAR = "COHERENTLAB_MAX_BALL_ELEMENTS"

EUCLIDEAN = "euclidean"
INTEGER_LATTICE = "integer_lattice"
DISCRETE_HEISENBERG = "discrete_heisenberg"

EUCLIDEAN_NORM = "euclidean_norm"
WORD_METRIC = "word_metric"
HOMOGENEOUS_HEISENBERG = "homogeneous_heisenberg"


class BudgetExceededError(RuntimeError):
    """An enumeration would exceed the configured element budget."""


def ball_budget() -> int:
    """Element budget for ball enumeration, overridable via the environment.

    A blank value means the default; anything but a positive integer raises
    ``ValueError`` naming the variable.
    """
    raw = os.environ.get(BUDGET_ENV_VAR, "").strip()
    if not raw:
        return DEFAULT_BALL_BUDGET
    try:
        budget = int(raw)
    except ValueError:
        budget = 0
    if budget < 1:
        raise ValueError(f"{BUDGET_ENV_VAR} must be a positive integer, got {raw!r}")
    return budget


# -- Group models -------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class GroupModel:
    """One of the concrete ambient groups.

    Elements are plain tuples: floats for the euclidean kind, ints otherwise;
    H3 multiplies in normal form, (x, y, z)(x', y', z') = (x + x', y + y',
    z + z' + x y').
    """

    kind: str
    dim: int = 0

    @property
    def is_discrete(self) -> bool:
        return self.kind != EUCLIDEAN


def euclidean(dim: int) -> GroupModel:
    """R^d with vector addition and Lebesgue measure."""
    if dim < 1:
        raise ValueError("dim must be >= 1")
    return GroupModel(kind=EUCLIDEAN, dim=dim)


def integer_lattice(dim: int) -> GroupModel:
    """Z^d, whose word metric takes the generator star +-e_1, ..., +-e_d."""
    if dim < 1:
        raise ValueError("dim must be >= 1")
    return GroupModel(kind=INTEGER_LATTICE, dim=dim)


def discrete_heisenberg() -> GroupModel:
    """H3(Z) in normal form, whose word metric takes a^(+-1), b^(+-1)."""
    return GroupModel(kind=DISCRETE_HEISENBERG, dim=3)


# -- Element keys -------------------------------------------------------------


def _keys(group: GroupModel, pts: np.ndarray) -> np.ndarray:
    """Pack the rows of an (n, dim) int64 array into one int64 key each.

    Every coordinate is offset into [0, 2^bits) with bits = 63 // dim, so the
    integer order of the keys is the lexicographic order of the tuples.  A
    coordinate outside [-2^(bits-1), 2^(bits-1)) raises: int64 overflow in
    numpy wraps silently.
    """
    bits = 63 // group.dim
    offset = 1 << (bits - 1)
    if pts.size and (pts.min() < -offset or pts.max() >= offset):
        raise OverflowError(f"group element coordinate outside the key range "
                            f"[-2^{bits - 1}, 2^{bits - 1})")
    keys = np.zeros(len(pts), dtype=np.int64)
    for col in (pts + offset).T:
        keys = (keys << bits) | col
    return keys


def _coords(group: GroupModel, keys: np.ndarray) -> np.ndarray:
    """Inverse of ``_keys``: the (n, dim) int64 array of the packed elements."""
    bits = 63 // group.dim
    shifts = bits * np.arange(group.dim - 1, -1, -1, dtype=np.int64)
    return ((keys[:, None] >> shifts) & ((1 << bits) - 1)) - (1 << (bits - 1))


# -- Metrics ------------------------------------------------------------------


@dataclass(eq=False)
class PeriodicMetric:
    """Left-invariant metric on one of the group models.

    Kinds: ``euclidean_norm`` on R^d, ``word_metric`` on any discrete kind,
    ``homogeneous_heisenberg`` (Cygan gauge) on H3(Z).  Word balls are closed
    forms (see the word-ball section below); the sizes of the H3 word balls
    up to the largest radius measured are cached, and so are the z-columns of
    every gauge ball built or measured.
    """

    kind: str
    group: GroupModel
    _h3_sizes: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64),
                                  repr=False)  # elements of the H3 word ball of radius r
    _gauge_balls: dict = field(default_factory=dict,
                               repr=False)  # (radius, closed) -> its gauge ball's columns


# -- Word balls in closed form --------------------------------------------------
#
# On H3 with generators a^(+-1) and b^(+-1), a word is a lattice path from 0 to
# (x, y), and z is the integral of x dy along it: closed by (x, y) -> (0, y) ->
# (0, 0), the path encloses the signed area z.  Inverting a or b maps (x, y, z)
# to (-x, y, -z) or (x, -y, -z), and g -> (x, y, xy - z) is the inverse followed
# by both flips; each keeps the generating set, so each keeps word length.  On
# x, y >= 0 and z > xy the shortest path runs round a W x H rectangle with that
# L as its top-left corner, and a staircase cut trims its area to z without
# adding length, so |g| = min 2 (W + H) - x - y over W >= x, H >= y, WH >= z
# (Blachere, "Word distance on the discrete Heisenberg group", Colloq. Math. 95,
# 2003).  Brought to x, y >= 0 and z >= 0, that minimum is x + y when z <= xy;
# else, with M = max(x, y) and N = min(x, y), it is M - N + 2 ceil(z / M)
# when z <= M^2, and 2 ceil(2 sqrt z) - x - y past it.  For fixed (x, y) the
# length is nondecreasing in z on z >= xy and symmetric under z -> xy - z, so
# a word ball is one interval of z per (x, y) with |x| + |y| <= R; on Z^d it
# is one interval of the last coordinate per point of the ell^1 ball of the
# others.  z is the last key field, so the keys of such a column are
# consecutive integers.


def _z_reach(a, b, radius):
    """The greatest z >= ab at which (a, b, z) has word length <= radius, for
    a, b >= 0 with a + b <= radius (numpy arrays broadcast): t^2 // 4 with
    t = (R + a + b) // 2 if that passes M^2, else min(M^2, M ((R - M + N) // 2))."""
    big, small = np.maximum(a, b), np.minimum(a, b)
    t = (radius + a + b) // 2
    far = t * t // 4
    near = np.minimum(big * big, big * ((radius - big + small) // 2))
    return np.where(far > big * big, far, near)


def _runs(start: np.ndarray, n: np.ndarray) -> np.ndarray:
    """The integers of the ranges [start_i, start_i + n_i), in order."""
    return np.repeat(start - np.cumsum(n) + n, n) + np.arange(n.sum())


def _diamond(dims: int, radius: int) -> tuple:
    """The ell^1 ball of Z^dims of this radius in lexicographic order, as a
    list of coordinate arrays, and the radius - sum_i |x_i| each point leaves."""
    coords, left = [], np.array([radius], dtype=np.int64)
    for _ in range(dims):
        n = 2 * left + 1
        parent = np.repeat(np.arange(len(left)), n)
        c = _runs(-left, n)
        coords = [p[parent] for p in coords] + [c]
        left = left[parent] - np.abs(c)
    return coords, left


def _lattice_ball_size(dims: int, radius: int) -> int:
    """Points of the ell^1 ball of Z^dims: sum_k 2^k C(dims, k) C(R, k), a
    point with k nonzero coordinates standing for its 2^k sign flips."""
    return sum(2 ** k * math.comb(dims, k) * math.comb(radius, k) for k in range(dims + 1))


def _columns(group: GroupModel, radius: int) -> tuple:
    """The columns of the word ball of this radius, in key order: the
    coordinate arrays of each column's first element, and its length.  On
    Z^d the last coordinate runs over |x_d| <= R - sum_i |x_i|.  On H3, with
    Z = max(|xy|, ``_z_reach``(|x|, |y|)), it runs over [xy - Z, Z] when
    xy >= 0, and over its image [-Z, Z + xy] under one flip when xy < 0."""
    if group.kind == INTEGER_LATTICE:
        prefix, left = _diamond(group.dim - 1, radius)
        return prefix + [-left], 2 * left + 1
    (x, y), _ = _diamond(2, radius)
    xy = x * y
    z = np.maximum(np.abs(xy), _z_reach(np.abs(x), np.abs(y), radius))
    return [x, y, np.where(xy >= 0, xy - z, -z)], 2 * z - np.abs(xy) + 1


def _h3_ball_sizes(radius: int) -> np.ndarray:
    """Elements of the H3 word balls of radius 0 to this one, in one pass
    over the columns with x, y >= 0, each standing for its 1, 2 or 4 images
    under the flips."""
    (a, b), _ = _diamond(2, radius)
    quadrant = (a >= 0) & (b >= 0)
    a, b = a[quadrant], b[quadrant]
    r = np.arange(radius + 1)[:, None]
    n = 2 * np.maximum(a * b, _z_reach(a, b, r)) - a * b + 1
    return np.where(a + b <= r, n, 0) @ ((1 + (a > 0)) * (1 + (b > 0)))


def format_count(n: int) -> str:
    """n in full below 10^15, else to three digits as m.mme+k, which no float
    could hold past 1e308."""
    if n < 10 ** 15:
        return str(n)
    import decimal  # only a refused ball formats a count
    return format(decimal.Decimal(n), ".2e")


def _check_budget(metric: PeriodicMetric, radius: float, size: int, budget: int,
                  what: str = "elements") -> None:
    if size > budget:
        ball = "gauge" if metric.kind == HOMOGENEOUS_HEISENBERG else "word"
        raise BudgetExceededError(f"{ball} ball of radius {radius:g} has {format_count(size)} "
                                  f"{what}, over budget {budget} ({BUDGET_ENV_VAR})")


def _word_ball_size(metric: PeriodicMetric, radius: int) -> int:
    """Elements of the word ball of this integer radius, checked against the
    budget.  On H3 the sizes of every radius up to it are cached, once the
    columns and then the elements of this radius have passed the budget,
    which bounds the radii x columns of that pass."""
    group, budget = metric.group, ball_budget()
    if radius < 0:
        return 0
    if group.kind == INTEGER_LATTICE:
        size = _lattice_ball_size(group.dim, radius)
    else:
        if radius >= len(metric._h3_sizes):
            _check_budget(metric, radius, _lattice_ball_size(2, radius), budget, "z-columns")
            _check_budget(metric, radius, int(_columns(group, radius)[1].sum()), budget)
            metric._h3_sizes = _h3_ball_sizes(radius)
        size = int(metric._h3_sizes[radius])
    _check_budget(metric, radius, size, budget)
    return size


def euclidean_metric(group: GroupModel | None = None, dim: int = 2) -> PeriodicMetric:
    group = group or euclidean(dim)
    if group.kind != EUCLIDEAN:
        raise ValueError("euclidean_norm metric requires the euclidean kind")
    return PeriodicMetric(kind=EUCLIDEAN_NORM, group=group)

def word_metric(group: GroupModel) -> PeriodicMetric:
    if not group.is_discrete:
        raise ValueError("word_metric requires a discrete kind")
    return PeriodicMetric(kind=WORD_METRIC, group=group)

def heisenberg_gauge_metric(group: GroupModel | None = None) -> PeriodicMetric:
    group = group or discrete_heisenberg()
    if group.kind != DISCRETE_HEISENBERG:
        raise ValueError("homogeneous_heisenberg metric requires H3(Z)")
    return PeriodicMetric(kind=HOMOGENEOUS_HEISENBERG, group=group)


# -- Balls --------------------------------------------------------------------


def _unit_ball_volume(dim: int) -> float:
    return math.pi ** (dim / 2.0) / math.gamma(dim / 2.0 + 1.0)


@dataclass(eq=False)
class Ball:
    """Metric ball about the identity.

    A discrete ball built by ``ball`` carries the columns that ``_columns``
    or ``_gauge_columns`` lay out, as its runs: on Z^d and H3 each column is
    a run of consecutive keys (see ``_keys``), stored as the (m, dim) int64
    coordinates of each run's first element and the m run lengths, and its
    measure is their sum.  The runs are all the Folner count reads of it;
    ``keys``, the sorted int64 key array, and ``points``, its tuples in key
    order, are decoded from them on first read.  A ball may instead be made
    from any sorted key array, with no runs: ``runs`` then splits the keys.
    A continuous ball has neither keys nor runs.
    """

    metric: PeriodicMetric
    radius: float
    closed: bool
    _stored_keys: np.ndarray | None = field(repr=False)
    measure: float
    _stored_runs: tuple | None = field(default=None, repr=False)
    _points: tuple | None = field(default=None, init=False, repr=False)

    @property
    def keys(self) -> np.ndarray | None:
        if self._stored_keys is None and self._stored_runs is not None:
            first, n = self._stored_runs
            self._stored_keys = _runs(_keys(self.metric.group, first), n)
        return self._stored_keys

    @property
    def runs(self) -> tuple | None:
        """(first, n): the coordinates of each run's first element and the
        run lengths; the maximal runs of the keys if the ball has no runs."""
        keys = self._stored_keys
        if self._stored_runs is not None or keys is None:
            return self._stored_runs
        heads = np.flatnonzero(np.diff(keys, prepend=keys[:1] - 2) != 1)
        return _coords(self.metric.group, keys[heads]), np.diff(heads, append=len(keys))

    @property
    def points(self) -> tuple | None:
        if self.keys is not None and self._points is None:
            self._points = tuple(map(tuple, _coords(self.metric.group, self.keys).tolist()))
        return self._points


def _gauge_inside(x, y, z, radius: float, closed: bool) -> np.ndarray:
    """The Cygan gauge ((x^2 + y^2)^2 + 16 t^2)^(1/4), t = z - xy / 2 in
    symmetric coordinates, <= radius (< when open), element by element."""
    t = z - x * y / 2.0
    quartic = (x * x + y * y) ** 2 + 16.0 * t * t
    gauge = quartic ** 0.25
    # numpy's vectorised pow may round differently from the scalar libm pow
    # that defines the gauge: near the radius, take the scalar's own
    near = np.abs(gauge - radius) <= 1e-12 * radius
    gauge[near] = [q ** 0.25 for q in quartic[near].tolist()]
    return gauge <= radius if closed else gauge < radius


def _gauge_columns(metric: PeriodicMetric, radius: float, closed: bool) -> tuple:
    """The nonempty columns of the gauge ball of this radius, as ``_columns``
    gives a word ball's, once the (2 floor(r) + 1)^2 columns and then their
    elements have passed the budget.  The metric keeps each (radius, closed)
    pair's columns, so a ball is laid out once per metric; both budget checks
    run on every call."""
    m, budget = math.floor(radius), ball_budget()
    _check_budget(metric, radius, (2 * m + 1) ** 2, budget, "z-columns")
    if (radius, closed) not in metric._gauge_balls:
        metric._gauge_balls[radius, closed] = _gauge_layout(radius, closed)
    first, n = metric._gauge_balls[radius, closed]
    _check_budget(metric, radius, int(n.sum()), budget)
    return first, n


def _gauge_layout(radius: float, closed: bool) -> tuple:
    """The gauge ball's nonempty columns.  The gauge is monotone in
    |z - xy / 2|, so the ball holds one interval of z per (x, y) with |x|,
    |y| <= r: [xy / 2 - s, xy / 2 + s] with s = sqrt(r^4 - (x^2 + y^2)^2) / 4.
    Its rounded ends then move out while the next z is inside, and in while
    theirs is not, so elements on the sphere count as the gauge counts them."""
    m = math.floor(radius)
    x, y = (c.ravel() for c in np.meshgrid(np.arange(-m, m + 1), np.arange(-m, m + 1),
                                           indexing="ij"))
    mid = x * y / 2.0
    s = np.sqrt(np.maximum(radius ** 4 - (x * x + y * y) ** 2, 0.0)) / 4.0
    ends = np.stack([np.ceil(mid - s), np.floor(mid + s)]).astype(np.int64)
    step = np.array([[-1], [1]])  # outward, for the rows lo and hi
    while (out := _gauge_inside(x, y, ends + step, radius, closed)).any():
        ends += step * out
    while (off := (ends[0] <= ends[1]) & ~_gauge_inside(x, y, ends, radius, closed)).any():
        ends -= step * off
    lo, hi = ends
    keep = lo <= hi
    return [x[keep], y[keep], lo[keep]], hi[keep] - lo[keep] + 1


def _effective_word_radius(radius: float, closed: bool) -> int:
    # word distances are integers, so open/closed balls reduce to int radii
    return int(math.floor(radius)) if closed else int(math.ceil(radius)) - 1


def _check_radius(metric: PeriodicMetric, radius: float) -> None:
    if not radius >= 0:  # NaN too
        raise ValueError(f"radius must be >= 0, got {radius}")
    if metric.kind != EUCLIDEAN_NORM and math.isinf(radius):
        raise ValueError(f"radius must be finite on a {metric.kind}, got {radius}")


def ball(metric: PeriodicMetric, radius: float, closed: bool = True) -> Ball:
    """Metric ball about the identity; its columns when discrete, each of
    whose first and last elements has passed the key range."""
    _check_radius(metric, radius)
    group = metric.group
    if metric.kind == EUCLIDEAN_NORM:
        return Ball(metric, radius, closed, None,
                    _unit_ball_volume(metric.group.dim) * radius ** metric.group.dim)
    if metric.kind == HOMOGENEOUS_HEISENBERG:
        first, n = _gauge_columns(metric, radius, closed)
    else:
        word_radius = _effective_word_radius(radius, closed)
        empty = np.zeros(0, dtype=np.int64)
        first, n = (_columns(group, word_radius)
                    if _word_ball_size(metric, word_radius) else ([empty] * group.dim, empty))
    first = np.stack(first, axis=1)
    last = first.copy()
    last[:, -1] += n - 1
    for ends in (first, last):
        _keys(group, ends)  # raises outside the range
    return Ball(metric, radius, closed, None, float(n.sum()), (first, n))


def ball_measure(metric: PeriodicMetric, radius: float, closed: bool = True) -> float:
    """Haar measure of the ball: volume if continuous, element count if
    discrete, which builds no keys."""
    _check_radius(metric, radius)
    if metric.kind == EUCLIDEAN_NORM:
        return _unit_ball_volume(metric.group.dim) * radius ** metric.group.dim
    if metric.kind == WORD_METRIC:
        return float(_word_ball_size(metric, _effective_word_radius(radius, closed)))
    return float(_gauge_columns(metric, radius, closed)[1].sum())


# -- Growth and annular decay -------------------------------------------------


@dataclass(frozen=True)
class GrowthFit:
    """Least-squares fit of log mu(B_r) against log r."""

    radii: tuple
    volumes: tuple
    exponent_hat: float
    constant_hat: float
    residual: float

    def to_json(self) -> dict:
        return {
            "radii": list(self.radii),
            "volumes": list(self.volumes),
            "exponent_hat": self.exponent_hat,
            "constant_hat": self.constant_hat,
            "residual": self.residual,
        }


def fit_growth_exponent(metric: PeriodicMetric, radii: Sequence[float]) -> GrowthFit:
    """Fit the polynomial growth exponent from closed-ball measures."""
    radii = tuple(float(r) for r in radii)
    if len(radii) < 4:
        raise ValueError("need at least 4 radii")
    if any(r < 1 for r in radii) or any(b >= a for a, b in zip(radii[1:], radii[:-1])):
        raise ValueError("radii must be strictly increasing and >= 1")
    ball_measure(metric, radii[-1], closed=True)  # one pass sizes every ball
    vols = tuple(ball_measure(metric, r, closed=True) for r in radii)
    if min(vols) <= 0:
        raise ValueError("ball measure vanished; radii too small for this metric")
    lr = np.log(np.asarray(radii))
    lv = np.log(np.asarray(vols))
    slope, intercept = np.polyfit(lr, lv, 1)
    resid = float(np.sqrt(np.mean((slope * lr + intercept - lv) ** 2)))
    return GrowthFit(radii, vols, float(slope), float(math.exp(intercept)), resid)


@dataclass(frozen=True)
class AnnularDecayFit:
    """Zero-violation certificate mu(B_r \\ B_{r-s}) <= c_hat (s/r)^delta_hat mu(B_r)."""

    delta_hat: float
    c_hat: float
    violations: int
    samples: tuple  # rows (r, s, ratio)
    c_max: float

    def to_json(self) -> dict:
        return {
            "delta_hat": self.delta_hat,
            "c_hat": self.c_hat,
            "violations": self.violations,
            "c_max": self.c_max,
            "samples": [list(s) for s in self.samples],
        }


def _annular_samples(metric: PeriodicMetric, r_samples, s_fracs):
    for name, values in (("r_samples", r_samples), ("s_fracs", s_fracs)):
        if not len(values):
            raise ValueError(f"{name} must not be empty")
    if any(not 0.0 < frac <= 1.0 for frac in s_fracs):
        raise ValueError("s fractions must lie in (0, 1]")
    ball_measure(metric, max(r_samples), closed=False)  # one pass sizes every ball
    rows = []
    for r in r_samples:
        mu_r = ball_measure(metric, r, closed=False)
        if mu_r <= 0:
            raise ValueError(f"open ball of radius {r} is empty")
        for frac in s_fracs:
            s = frac * r
            inner = r - s
            mu_in = ball_measure(metric, inner, closed=False) if inner > 0 else 0.0
            rows.append((float(r), float(s), (mu_r - mu_in) / mu_r))
    return rows


ANNULAR_DELTA_GRID = tuple(round(0.05 * k, 2) for k in range(20, 0, -1))  # 1 down to 0.05


def estimate_annular_decay(metric: PeriodicMetric, r_samples: Sequence[float],
                           s_fracs: Sequence[float], c_max: float = 8.0) -> AnnularDecayFit:
    """Largest delta of ANNULAR_DELTA_GRID admitting a certificate with
    c_hat <= c_max.

    Open balls are used on both sides of the annulus, matching the decay
    condition the counting estimates rely on.  The returned c_hat is the
    minimal constant for the certified delta, so violations are zero on the
    fitted samples by construction.
    """
    rows = _annular_samples(metric, r_samples, s_fracs)
    for delta in ANNULAR_DELTA_GRID:
        c_needed = max((ratio * (r / s) ** delta for r, s, ratio in rows), default=0.0)
        if c_needed <= c_max:
            break
    # the first delta that meets c_max, else the smallest delta's requirement
    return AnnularDecayFit(float(delta), float(c_needed), 0, tuple(rows), c_max)


def annular_violations(fit: AnnularDecayFit, metric: PeriodicMetric,
                       r_samples: Sequence[float], s_fracs: Sequence[float]) -> int:
    """Re-check a fitted certificate on a fresh sample grid."""
    rows = _annular_samples(metric, r_samples, s_fracs)
    bad = 0
    for r, s, ratio in rows:
        if ratio > fit.c_hat * (s / r) ** fit.delta_hat + 1e-12:
            bad += 1
    return bad


# -- Folner machinery ----------------------------------------------------------


def folner_ratio(metric: PeriodicMetric, k_n: Ball, k: Ball) -> float:
    """mu(K_n K intersect K_n^c K) / mu(K_n) for balls K_n and K.

    K_n must not be empty.  An x in K_n K lies outside K_n^c K when x q^-1
    is in K_n for every q in K; K is a ball about the identity, so it is
    symmetric, and that is when x q is.  Z^d and H3 count exactly on the
    runs of consecutive keys of K_n, decoding only K: a K_n from ``ball``
    carries its columns as runs and expands no keys, and one made from keys
    is split into its runs here.  The last coordinate is the last key field,
    and p q moves it by q_z (plus x q_y on H3, x being fixed along a run),
    so a run's right translate by q is a run of the same length from first
    q.  Each K_n q is a bijective image of K_n, so its runs are disjoint,
    and the runs over all q that cover x number the q with x q^-1 in K_n:
    K_n K is where that coverage is at least 1, the x above are where it is
    |K|, and one sort of the runs' ends sweeps both.  The euclidean kind has
    the closed annulus form.
    """
    group = metric.group
    if not k_n.measure:
        raise ValueError(f"K_n of radius {k_n.radius:g} is empty: its Folner ratio is undefined")
    if metric.kind == EUCLIDEAN_NORM:
        d = group.dim
        vd = _unit_ball_volume(d)
        rn, rk = k_n.radius, k.radius
        outer = vd * (rn + rk) ** d
        inner = vd * max(rn - rk, 0.0) ** d
        return (outer - inner) / (vd * rn ** d)
    # the stored arrays, not the keys property, which would expand the runs
    if any(b._stored_keys is None and b._stored_runs is None for b in (k_n, k)):
        raise ValueError("discrete Folner ratio needs enumerated balls")
    if k_n.measure * k.measure > ball_budget():
        raise BudgetExceededError("Folner product set exceeds budget")
    if not k.measure:
        return 0.0  # K_n K is empty
    p, n = k_n.runs
    qs = _coords(group, k.keys)[:, None]
    first = p + qs  # one row per q, one column per run
    if group.kind == DISCRETE_HEISENBERG:
        first[..., 2] += p[:, 0] * qs[..., 1]
    lo = _keys(group, first.reshape(-1, group.dim))  # each raises outside the range
    first[..., -1] += n - 1
    hi = _keys(group, first.reshape(-1, group.dim))
    # a run ends one past its last key, up to 2^63, which uint64 holds.  Each
    # start is followed by its end; right translation keeps the key order, so
    # one q's starts and ends ascend, and the stable sort (a timsort) merges
    # |K| ascending runs
    at = np.stack([lo.view(np.uint64), hi.view(np.uint64) + np.uint64(1)], axis=1).ravel()
    order = np.argsort(at, kind="stable")
    coverage = np.cumsum(1 - 2 * (order & 1))[:-1]
    gaps = np.diff(at[order])
    product = int(gaps[coverage > 0].sum())
    interior = int(gaps[coverage == len(qs)].sum())
    return (product - interior) / k_n.measure


def folner_exhaustion(metric: PeriodicMetric, r0: float, count: int, step: float) -> list:
    """Nested closed balls with radii r_1, r_1 + step, ... and r_1 = max(r0+1, step)."""
    if r0 <= 0:
        raise ValueError("r0 must be positive")
    if metric.kind != EUCLIDEAN_NORM and r0 < 1:
        raise ValueError("discrete kinds require r0 >= 1")
    if step <= r0:
        raise ValueError(f"step must exceed r0 (got step={step}, r0={r0})")
    if count < 1:
        raise ValueError("count must be >= 1")
    r1 = max(r0 + 1.0, float(step))
    ball_measure(metric, r1 + (count - 1) * step, closed=True)  # one pass sizes every ball
    return [ball(metric, r1 + i * step, closed=True) for i in range(count)]
