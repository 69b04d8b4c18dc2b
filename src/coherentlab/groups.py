"""Concrete groups of polynomial growth with periodic metrics.

Four desk-scale models are shipped: Euclidean R^d with Lebesgue measure, the
integer lattice Z^d, the discrete Heisenberg group H3(Z) in normal form, and
the finite torus Z_N x Z_N, each with counting measure.  On top of them sit
metric balls about the identity (word and gauge balls alike one interval of
the last coordinate per column, sized exactly from their columns before any
element is built), growth-exponent and annular-decay diagnostics, and Folner
ratios on R^d, Z^d and H3.  Translates x K are the callers' business: the
counting code moves its centres, not its balls.
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
FINITE_CYCLIC_SQ = "finite_cyclic_sq"

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

    Elements are plain tuples: floats for the euclidean kind, ints otherwise.
    ``generators`` is the (symmetric) generating set used by word metrics.
    """

    kind: str
    dim: int = 0
    modulus: int = 0
    generators: tuple = ()
    measure: str = "counting"

    @property
    def is_discrete(self) -> bool:
        return self.kind != EUCLIDEAN

    def identity(self) -> tuple:
        if self.kind == EUCLIDEAN:
            return (0.0,) * self.dim
        if self.kind == INTEGER_LATTICE:
            return (0,) * self.dim
        if self.kind == DISCRETE_HEISENBERG:
            return (0, 0, 0)
        return (0, 0)

    def multiply(self, a: tuple, b: tuple) -> tuple:
        if self.kind == DISCRETE_HEISENBERG:
            # normal form (x, y, z), (x,y,z)(x',y',z') = (x+x', y+y', z+z'+x*y')
            return (a[0] + b[0], a[1] + b[1], a[2] + b[2] + a[0] * b[1])
        if self.kind == FINITE_CYCLIC_SQ:
            n = self.modulus
            return ((a[0] + b[0]) % n, (a[1] + b[1]) % n)
        return tuple(x + y for x, y in zip(a, b))

    def inverse(self, a: tuple) -> tuple:
        if self.kind == DISCRETE_HEISENBERG:
            return (-a[0], -a[1], -a[2] + a[0] * a[1])
        if self.kind == FINITE_CYCLIC_SQ:
            n = self.modulus
            return ((-a[0]) % n, (-a[1]) % n)
        return tuple(-x for x in a)

    def elements(self) -> list:
        """All elements; finite kind only."""
        if self.kind != FINITE_CYCLIC_SQ:
            raise ValueError("elements() requires the finite kind")
        n = self.modulus
        return [(k, l) for k in range(n) for l in range(n)]


def euclidean(dim: int) -> GroupModel:
    """R^d with vector addition and Lebesgue measure."""
    if dim < 1:
        raise ValueError("dim must be >= 1")
    return GroupModel(kind=EUCLIDEAN, dim=dim, measure="lebesgue")


def integer_lattice(dim: int) -> GroupModel:
    """Z^d with the standard generator star +-e_1, ..., +-e_d."""
    if dim < 1:
        raise ValueError("dim must be >= 1")
    gens = []
    for i in range(dim):
        for sign in (1, -1):
            e = [0] * dim
            e[i] = sign
            gens.append(tuple(e))
    return GroupModel(kind=INTEGER_LATTICE, dim=dim, generators=tuple(gens))


def discrete_heisenberg() -> GroupModel:
    """H3(Z) in normal form with generators a^(+-1), b^(+-1)."""
    gens = ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0))
    return GroupModel(kind=DISCRETE_HEISENBERG, dim=3, generators=gens)


def finite_cyclic_sq(n: int) -> GroupModel:
    """Z_N x Z_N with counting measure and the standard generator star."""
    if n < 2:
        raise ValueError("N must be >= 2")
    gens = ((1, 0), ((-1) % n, 0), (0, 1), (0, (-1) % n))
    return GroupModel(kind=FINITE_CYCLIC_SQ, dim=2, modulus=n, generators=tuple(set(gens)))


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


def _cygan_gauge(el: tuple) -> float:
    # polarized -> symmetric coordinates, then the Cygan gauge
    x, y, z = el
    t = z - x * y / 2.0
    return ((x * x + y * y) ** 2 + 16.0 * t * t) ** 0.25


@dataclass(eq=False)
class PeriodicMetric:
    """Left-invariant metric on one of the group models.

    Kinds: ``euclidean_norm`` on R^d, ``word_metric`` on any discrete kind,
    ``homogeneous_heisenberg`` (Cygan gauge) on H3(Z).  Word lengths and word
    balls are closed forms (see the word-ball section below); the sizes of
    the H3 word balls up to the largest radius measured are cached.
    """

    kind: str
    group: GroupModel
    _h3_sizes: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64),
                                  repr=False)  # elements of the H3 word ball of radius r

    def length(self, el: tuple) -> float:
        return self.distance(self.group.identity(), el)

    def distance(self, a: tuple, b: tuple) -> float:
        if self.kind == EUCLIDEAN_NORM:
            return math.sqrt(sum((x - y) ** 2 for x, y in zip(a, b)))
        rel = self.group.multiply(self.group.inverse(a), b)
        if self.kind == HOMOGENEOUS_HEISENBERG:
            return _cygan_gauge(rel)
        return float(self._word_length(rel))

    def _word_length(self, el: tuple) -> int:
        group = self.group
        if group.kind == INTEGER_LATTICE:
            return int(sum(abs(x) for x in el))
        if group.kind == FINITE_CYCLIC_SQ:
            n = group.modulus
            return int(sum(min(x % n, (-x) % n) for x in el))
        _keys(group, np.array([el], dtype=np.int64))  # raises outside the key range
        return _h3_length(*el)


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
# 2003).  For fixed (x, y) the length is nondecreasing in z on z >= xy and
# symmetric under z -> xy - z, so a word ball is one interval of z per (x, y)
# with |x| + |y| <= R; on Z^d it is one interval of the last coordinate per
# point of the ell^1 ball of the others.  z is the last key field, so the keys
# of such a column are consecutive integers.


def _h3_length(x: int, y: int, z: int) -> int:
    """Word length of (x, y, z) in H3: brought to x, y >= 0 and z >= 0, the
    minimum above is x + y when z <= xy; else, with M = max(x, y) and
    N = min(x, y), M - N + 2 ceil(z / M) when z <= M^2, and 2 ceil(2 sqrt z)
    - x - y past it."""
    if (x < 0) != (y < 0):
        z = -z
    x, y = abs(x), abs(y)
    if z < 0:
        z = x * y - z
    if z <= x * y:
        return x + y
    big, small = max(x, y), min(x, y)
    if big * big >= z:
        return big - small + 2 * -(-z // big)
    return 2 * (math.isqrt(4 * z - 1) + 1) - x - y


def _z_reach(a, b, radius):
    """The greatest z >= ab at which ``_h3_length``(a, b, z) <= radius, for
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
    """The columns of the word ball of this radius, in key order on Z^d and
    H3: the coordinate arrays of each column's first element, and its
    length.  On Z^d the last coordinate runs over |x_d| <= R - sum_i |x_i|.
    On H3, with Z = max(|xy|, ``_z_reach``(|x|, |y|)), it runs over
    [xy - Z, Z] when xy >= 0, and over its image [-Z, Z + xy] under one flip
    when xy < 0.  On Z_N x Z_N the signed digits s_i in [-lo, hi], lo =
    (N - 1) // 2 and hi = N // 2, stand for the elements one each, at word
    length |s_x| + |s_y|: the columns of s_y are a diamond clipped to the
    digit box, and past the diameter 2 hi the ball is the group."""
    if group.kind == FINITE_CYCLIC_SQ:
        lo, hi = (group.modulus - 1) // 2, group.modulus // 2
        radius = min(radius, 2 * hi)
        x = np.arange(-min(radius, lo), min(radius, hi) + 1)
        left = radius - np.abs(x)
        y = np.maximum(-left, -lo)
        return [x, y], np.minimum(left, hi) - y + 1
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
    if group.kind == FINITE_CYCLIC_SQ:
        size = int(_columns(group, radius)[1].sum())  # at most N columns
    elif group.kind == INTEGER_LATTICE:
        size = _lattice_ball_size(group.dim, radius)
    else:
        if radius >= len(metric._h3_sizes):
            _check_budget(metric, radius, _lattice_ball_size(2, radius), budget, "z-columns")
            _check_budget(metric, radius, int(_columns(group, radius)[1].sum()), budget)
            metric._h3_sizes = _h3_ball_sizes(radius)
        size = int(metric._h3_sizes[radius])
    _check_budget(metric, radius, size, budget)
    return size


@dataclass(frozen=True)
class _BallBox:
    """A row-major box of elements of Z^d or H3: the box over K_n K of the
    Folner count.

    Element c sits at cell sum_i (c_i - lo_i) * strides_i, so the order of
    the cells is the lexicographic order of the tuples, which is the order
    of their ``_keys``.  A key and a cell differ by ``base`` plus, for every
    coordinate i but the last, the digit c_i - lo_i times ``excess[i]``, its
    key step less its cell step; the last coordinate steps both by 1.
    """

    group: GroupModel
    lo: tuple
    strides: tuple
    cells: int
    base: int
    excess: tuple

    @classmethod
    def spanning(cls, group: GroupModel, lo: Sequence[int], hi: Sequence[int],
                 budget: int) -> "_BallBox":
        """The box of the elements with lo_i <= c_i <= hi_i, 1 byte per cell
        as a bitmap.  For balls K_n and K, K_n K is the ball B of radius
        r_n + r_K, with |B| <= |K_n| |K|, and its bounding box has at most d!
        cells per element of B on Z^d and 6 on H3 (it peaks at 5.41, radius
        6): a box of more cells per budgeted element raises before anything
        is allocated; a box outside the key range raises OverflowError."""
        shape = [h - l + 1 for l, h in zip(lo, hi)]
        cells = math.prod(shape)
        per_element = 6 if group.kind == DISCRETE_HEISENBERG else math.factorial(group.dim)
        if cells > per_element * budget:
            raise BudgetExceededError(
                f"Folner product set exceeds budget {budget} ({BUDGET_ENV_VAR}): "
                f"its box has {cells} cells, more than {per_element} per budgeted element")
        strides = [math.prod(shape[i + 1:]) for i in range(group.dim)]
        bits = 63 // group.dim
        corners = np.array([lo, hi], dtype=np.int64)
        base = int(_keys(group, corners)[0])  # raises outside the key range
        excess = [(1 << bits * (group.dim - 1 - i)) - strides[i] for i in range(group.dim - 1)]
        return cls(group, tuple(lo), tuple(strides), cells, base, tuple(excess))

    def index(self, keys: np.ndarray) -> np.ndarray:
        """Cells of packed elements that lie in the box."""
        group = self.group
        bits = 63 // group.dim
        cells = keys - self.base
        for i, excess in enumerate(self.excess):
            field = (keys >> bits * (group.dim - 1 - i)) & ((1 << bits) - 1)
            cells -= (field - (self.lo[i] + (1 << bits - 1))) * excess
        return cells

    def right_translates(self, cells: np.ndarray, qs):
        """Cells of p * q for every p at ``cells``, one row per q in ``qs``,
        yielded one row at a time.  The caller keeps every product in the
        box.  Each row keeps the order of ``cells``: p * q moves a cell by
        q's shift, plus x * q_y on H3, and x never falls as the cell grows."""
        shear = self.group.kind == DISCRETE_HEISENBERG
        if shear:
            x = cells // self.strides[0] + self.lo[0]
        for q in qs:
            row = cells + sum(int(c) * s for c, s in zip(q, self.strides))
            if shear and q[1]:
                row += x * int(q[1])
            yield row


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

    A discrete ball carries its elements as a sorted int64 key array (see
    ``_keys``), laid out column by column from ``_columns`` or
    ``_gauge_columns``.  On Z^d and H3 a nonempty ball also carries
    ``bounds``, the lists of the least and the greatest value of each
    coordinate over its elements, which size the Folner count's box.
    ``points`` decodes the keys into tuples, in key order, on first use.  A
    continuous ball has no keys.
    """

    metric: PeriodicMetric
    radius: float
    closed: bool
    keys: np.ndarray | None
    measure: float
    bounds: tuple | None
    _points: tuple | None = field(default=None, init=False, repr=False)

    @property
    def points(self) -> tuple | None:
        if self.keys is not None and self._points is None:
            self._points = tuple(map(tuple, _coords(self.metric.group, self.keys).tolist()))
        return self._points


def _gauge_inside(x, y, z, radius: float, closed: bool) -> np.ndarray:
    """``_cygan_gauge``(x, y, z) <= radius (< when open), element by element."""
    t = z - x * y / 2.0
    quartic = (x * x + y * y) ** 2 + 16.0 * t * t
    gauge = quartic ** 0.25
    # numpy's vectorised pow may round differently from the libm pow that
    # _cygan_gauge calls: near the radius, take the scalar's own
    near = np.abs(gauge - radius) <= 1e-12 * radius
    gauge[near] = [q ** 0.25 for q in quartic[near].tolist()]
    return gauge <= radius if closed else gauge < radius


def _gauge_columns(metric: PeriodicMetric, radius: float, closed: bool) -> tuple:
    """The nonempty columns of the gauge ball of this radius, as ``_columns``
    gives a word ball's, once the (2 floor(r) + 1)^2 columns and then their
    elements have passed the budget.  The gauge is monotone in |z - xy / 2|,
    so the ball holds one interval of z per (x, y) with |x|, |y| <= r:
    [xy / 2 - s, xy / 2 + s] with s = sqrt(r^4 - (x^2 + y^2)^2) / 4.  Its
    rounded ends then move out while the next z is inside, and in while
    theirs is not, so elements on the sphere count as the gauge counts them."""
    m, budget = math.floor(radius), ball_budget()
    _check_budget(metric, radius, (2 * m + 1) ** 2, budget, "z-columns")
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
    n = hi[keep] - lo[keep] + 1
    _check_budget(metric, radius, int(n.sum()), budget)
    return [x[keep], y[keep], lo[keep]], n


def _ball_keys(group: GroupModel, first: list, n: np.ndarray) -> tuple:
    """Sorted keys of the ball with these columns and, on Z^d and H3, its
    bounds (see ``Ball``): the least and greatest first element of each
    coordinate, the last one's greatest being a column's last element, first
    + n - 1.  The torus's columns wrap, so its keys are sorted."""
    if not len(n):
        return np.zeros(0, dtype=np.int64), None
    if group.kind == FINITE_CYCLIC_SQ:
        (x, y) = first
        pts = np.stack([np.repeat(x, n), _runs(y, n)], axis=1) % group.modulus
        return np.sort(_keys(group, pts)), None
    last = [first[-1] + n - 1]
    bounds = ([int(c.min()) for c in first], [int(c.max()) for c in first[:-1] + last])
    _keys(group, np.array(bounds, dtype=np.int64))  # raises outside the key range
    return _runs(_keys(group, np.stack(first, axis=1)), n), bounds


def _effective_word_radius(radius: float, closed: bool) -> int:
    # word distances are integers, so open/closed balls reduce to int radii
    return int(math.floor(radius)) if closed else int(math.ceil(radius)) - 1


def _check_radius(metric: PeriodicMetric, radius: float) -> None:
    if not radius >= 0:  # NaN too
        raise ValueError(f"radius must be >= 0, got {radius}")
    if metric.kind != EUCLIDEAN_NORM and math.isinf(radius):
        raise ValueError(f"radius must be finite on a {metric.kind}, got {radius}")


def ball(metric: PeriodicMetric, radius: float, closed: bool = True) -> Ball:
    """Metric ball about the identity; enumerated when discrete."""
    _check_radius(metric, radius)
    if metric.kind == EUCLIDEAN_NORM:
        return Ball(metric, radius, closed, None,
                    _unit_ball_volume(metric.group.dim) * radius ** metric.group.dim, None)
    if metric.kind == HOMOGENEOUS_HEISENBERG:
        first, n = _gauge_columns(metric, radius, closed)
    else:
        word_radius = _effective_word_radius(radius, closed)
        first, n = (_columns(metric.group, word_radius)
                    if _word_ball_size(metric, word_radius) else ([], []))
    keys, bounds = _ball_keys(metric.group, first, n)
    return Ball(metric, radius, closed, keys, float(len(keys)), bounds)


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


def estimate_annular_decay(metric: PeriodicMetric, r_samples: Sequence[float],
                           s_fracs: Sequence[float], delta_grid: Sequence[float] | None = None,
                           c_max: float = 8.0) -> AnnularDecayFit:
    """Largest grid delta admitting a certificate with c_hat <= c_max.

    Open balls are used on both sides of the annulus, matching the decay
    condition the counting estimates rely on.  The returned c_hat is the
    minimal constant for the certified delta, so violations are zero on the
    fitted samples by construction.
    """
    if delta_grid is None:
        delta_grid = [round(0.05 * k, 2) for k in range(1, 21)]
    if not len(delta_grid):
        raise ValueError("delta_grid must not be empty")
    rows = _annular_samples(metric, r_samples, s_fracs)
    best = None
    for delta in sorted(delta_grid, reverse=True):
        c_needed = max((ratio * (r / s) ** delta for r, s, ratio in rows), default=0.0)
        if c_needed <= c_max:
            return AnnularDecayFit(float(delta), float(c_needed), 0, tuple(rows), c_max)
        best = (delta, c_needed)  # fallback: the smallest delta's requirement
    return AnnularDecayFit(float(best[0]), float(best[1]), 0, tuple(rows), c_max)


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
    """mu(K_n K intersect K_n^c K) / mu(K_n) for balls K_n and K on R^d, Z^d
    or H3.

    K_n must not be empty.  An x in K_n K lies outside K_n^c K when x q^-1
    is in K_n for every q in K; K is a ball about the identity, so it is
    symmetric, and that is when x q is.  Z^d and H3 count exactly on
    bitmaps of a box holding K_n K, sized from the balls' bounds: the cells
    of K_n are marked on one, then each right translate K_n q, q != e, in
    turn is gathered from it into a mask of those x and marked on a copy,
    which ends as K_n K.  The euclidean kind has the closed annulus form.  No
    run counts one on the finite torus, which raises.
    """
    group = metric.group
    if group.kind == FINITE_CYCLIC_SQ:
        raise ValueError(f"Folner ratios count R^d, Z^d and H3, not {group.kind}")
    if not k_n.measure:
        raise ValueError(f"K_n of radius {k_n.radius:g} is empty: its Folner ratio is undefined")
    if metric.kind == EUCLIDEAN_NORM:
        d = group.dim
        vd = _unit_ball_volume(d)
        rn, rk = k_n.radius, k.radius
        outer = vd * (rn + rk) ** d
        inner = vd * max(rn - rk, 0.0) ** d
        return (outer - inner) / (vd * rn ** d)
    if k_n.keys is None or k.keys is None:
        raise ValueError("discrete Folner ratio needs enumerated balls")
    budget = ball_budget()
    if k_n.measure * k.measure > budget:
        raise BudgetExceededError("Folner product set exceeds budget")
    if not k.measure:
        return 0.0  # K_n K is empty
    (lo, hi), (q_lo, q_hi) = k_n.bounds, k.bounds
    lo_prod = [a + b for a, b in zip(lo, q_lo)]
    hi_prod = [a + b for a, b in zip(hi, q_hi)]
    if group.kind == DISCRETE_HEISENBERG:  # p * q also moves z by x * q_y
        xy = [x * y for x in (lo[0], hi[0]) for y in (q_lo[1], q_hi[1])]
        lo_prod[2] += min(xy)
        hi_prod[2] += max(xy)
    box = _BallBox.spanning(group, lo_prod, hi_prod, budget)
    cells = box.index(k_n.keys)
    inside = np.zeros(box.cells, dtype=bool)
    inside[cells] = True
    product = inside.copy()
    interior = np.ones(len(cells), dtype=bool)
    qs = _coords(group, k.keys)
    for moved in box.right_translates(cells, qs[qs.any(axis=1)]):
        interior &= inside[moved]
        product[moved] = True
    return (np.count_nonzero(product) - np.count_nonzero(interior)) / k_n.measure


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
