"""Concrete groups of polynomial growth with periodic metrics.

Four desk-scale models are shipped: Euclidean R^d with Lebesgue measure, the
integer lattice Z^d, the discrete Heisenberg group H3(Z) in normal form, and
the finite torus Z_N x Z_N, each with counting measure.  On top of them sit
metric balls (enumerated for the discrete kinds), growth-exponent and
annular-decay diagnostics, and Folner machinery built from metric balls.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

DEFAULT_BALL_BUDGET = 5_000_000
BUDGET_ENV_VAR = "COHERENTLAB_MAX_BALL_ELEMENTS"
_GAUGE_SLAB = 1 << 16  # candidates per slab of a gauge-ball enumeration

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

    def multiply_array(self, a, b) -> np.ndarray:
        """Products a * b row by row; each side is an (n, dim) int64 array or
        one element, which is broadcast against the other side's rows."""
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        out = a + b
        if self.kind == DISCRETE_HEISENBERG:
            out[..., 2] += a[..., 0] * b[..., 1]
        elif self.kind == FINITE_CYCLIC_SQ:
            out %= self.modulus
        return out

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
    ``homogeneous_heisenberg`` (Cygan gauge) on H3(Z).  Word-metric spheres
    are cached on the instance as sorted key arrays and grown under the
    element budget; the growth, annular and Folner sweeps grow their largest
    word ball first, in one BFS, and Folner ratios count on a box bitmap.
    """

    kind: str
    group: GroupModel
    _layers: list = field(default_factory=list, repr=False)
    _gauge_cache: dict = field(default_factory=dict, repr=False)

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
        key = int(_keys(group, np.array([el], dtype=np.int64))[0])
        radius = 0
        while True:
            self._grow_layers(radius)
            if key in self._layers[radius]:
                return radius
            radius += 1

    def _grow_layers(self, up_to: int) -> None:
        """Extend the cached BFS spheres out to word length ``up_to``.

        Each new sphere is found on a boolean bitmap of a box that holds the
        ball of radius ``up_to`` (see ``_BallBox``): the right translates of
        the last sphere's box indices by the generators, less the cells
        already marked, sorted and deduplicated.  The generators are
        symmetric, so every neighbour of sphere r lies in sphere r - 1, r or
        r + 1: only the last two cached spheres are marked when a call
        starts.  A finite group stops growing at its first empty sphere:
        every later one is empty too.
        """
        group = self.group
        if not self._layers:
            self._layers.append(_keys(group, np.array([group.identity()], dtype=np.int64)))
        if len(self._layers) > up_to or not len(self._layers[-1]):
            return
        budget = ball_budget()
        box = _BallBox.around(group, up_to, budget)
        unseen = np.ones(box.cells, dtype=bool)
        for keys in self._layers[-2:]:
            sphere = box.index(keys)
            unseen[sphere] = False
        total = sum(len(layer) for layer in self._layers)
        while len(self._layers) <= up_to and len(sphere):
            moved = box.right_translates(sphere, group.generators).ravel()
            # the rows are sorted runs on Z^d and H3, which a stable sort merges
            moved = np.sort(moved[unseen[moved]], kind="stable")
            first = np.ones(len(moved), dtype=bool)
            first[1:] = moved[1:] != moved[:-1]
            sphere = moved[first]
            unseen[sphere] = False
            total += len(sphere)
            if total > budget:
                raise BudgetExceededError(
                    f"word ball enumeration exceeded budget {budget} at radius {len(self._layers)}"
                )
            self._layers.append(box.keys(sphere))


@dataclass(frozen=True)
class _BallBox:
    """A row-major box of group elements for the word-ball BFS and Folner count.

    Element c sits at cell sum_i (c_i - lo_i) * strides_i, so the order of
    the cells is the lexicographic order of the tuples, which is the order
    of their ``_keys``.  A key and a cell differ by ``base`` plus, for every
    coordinate i but the last, the digit c_i - lo_i times ``excess[i]``, its
    key step less its cell step; the last coordinate steps both by 1.  On
    Z_N x Z_N the coordinates are signed, the digits are taken mod N and
    cells are decoded instead; an axis of N or more cells is the whole
    group, with its digits taken from 0.
    """

    group: GroupModel
    lo: tuple
    strides: tuple
    cells: int
    base: int
    excess: tuple

    @classmethod
    def spanning(cls, group: GroupModel, lo: Sequence[int], hi: Sequence[int], budget: int,
                 what: str) -> "_BallBox":
        """The box of the elements with lo_i <= c_i <= hi_i, 1 byte per cell
        as a bitmap.  A box of more than d! cells per budgeted element on
        Z^d, 6 on H3 or 4 on Z_N x Z_N raises before anything is allocated
        (see ``around``); a box outside the key range raises OverflowError."""
        lo, shape = list(lo), [h - l + 1 for l, h in zip(lo, hi)]
        if group.kind == FINITE_CYCLIC_SQ:
            lo = [0 if n >= group.modulus else l for l, n in zip(lo, shape)]
            shape = [min(n, group.modulus) for n in shape]
        per_element = {FINITE_CYCLIC_SQ: 4, DISCRETE_HEISENBERG: 6}.get(
            group.kind, math.factorial(group.dim))
        cells = math.prod(shape)
        if cells > per_element * budget:
            raise BudgetExceededError(
                f"{what} exceeds budget {budget} ({BUDGET_ENV_VAR}): "
                f"its box has {cells} cells, more than {per_element} per budgeted element")
        strides = [math.prod(shape[i + 1:]) for i in range(group.dim)]
        if group.kind == FINITE_CYCLIC_SQ:
            return cls(group, tuple(lo), tuple(strides), cells, 0, ())
        bits = 63 // group.dim
        corners = np.array([lo, [l + n - 1 for l, n in zip(lo, shape)]], dtype=np.int64)
        base = int(_keys(group, corners)[0])  # raises outside the key range
        excess = [(1 << bits * (group.dim - 1 - i)) - strides[i] for i in range(group.dim - 1)]
        return cls(group, tuple(lo), tuple(strides), cells, base, tuple(excess))

    @classmethod
    def around(cls, group: GroupModel, radius: int, budget: int) -> "_BallBox":
        """The box of the word ball of this radius, for the factories'
        generator stars: a word of length R has |x_i| <= R on Z^d; on H3 also
        |z| <= floor(R^2 / 4), since each b step adds the current x to z and k
        b steps among R leave |x| <= R - k, so they add at most k (R - k); on
        Z_N x Z_N the signed |x|, |y| <= R.  Per ball element the box over
        the ell^1 ball of Z^d tends to d! cells from below; on H3 it peaks at
        5.41 (radius 6) and tends to 144 / 31; on Z_N x Z_N it is under 2,
        and the whole group over the diamond of radius (N - 1) // 2 after.
        So a box over the budget holds a ball over it, which the BFS would
        refuse at some radius anyway."""
        hi = [radius] * group.dim
        if group.kind == DISCRETE_HEISENBERG:
            hi[2] = radius * radius // 4
        return cls.spanning(group, [-h for h in hi], hi, budget, f"word ball of radius {radius}")

    def index(self, keys: np.ndarray) -> np.ndarray:
        """Cells of packed elements that lie in the box."""
        group = self.group
        if group.kind == FINITE_CYCLIC_SQ:
            digits = (_coords(group, keys) - np.array(self.lo)) % group.modulus
            return digits @ np.array(self.strides)
        bits = 63 // group.dim
        cells = keys - self.base
        for i, excess in enumerate(self.excess):
            field = (keys >> bits * (group.dim - 1 - i)) & ((1 << bits) - 1)
            cells -= (field - (self.lo[i] + (1 << bits - 1))) * excess
        return cells

    def keys(self, cells: np.ndarray) -> np.ndarray:
        """Sorted ``_keys`` of the elements at these sorted cells."""
        group = self.group
        if group.kind == FINITE_CYCLIC_SQ:
            x = cells // self.strides[0]
            digits = np.stack([x, cells - x * self.strides[0]], axis=1)
            return np.sort(_keys(group, (digits + np.array(self.lo)) % group.modulus))
        keys = cells + self.base
        for stride, excess in zip(self.strides, self.excess):
            digit = cells // stride  # c_i - lo_i; np.divmod and % are several times slower
            cells = cells - digit * stride
            keys += digit * excess
        return keys

    def right_translates(self, cells: np.ndarray, qs) -> np.ndarray:
        """Cells of p * q for every p at ``cells``, one row per q in ``qs``.
        The caller keeps every product in the box.  On Z^d and H3 each row
        keeps the order of ``cells``: p * q moves a cell by q's shift, plus
        x * q_y on H3, and x never falls as the cell grows."""
        group = self.group
        out = np.empty((len(qs), len(cells)), dtype=np.int64)
        if group.kind == FINITE_CYCLIC_SQ:
            n, side = group.modulus, self.strides[0]
            x = cells // side
            y = cells - x * side
            for row, (qx, qy) in zip(out, qs):
                np.add((x + qx) % n * side, (y + qy) % n, out=row)
            return out
        if group.kind == DISCRETE_HEISENBERG:
            x = cells // self.strides[0] + self.lo[0]
        for row, q in zip(out, qs):
            np.add(cells, sum(int(c) * s for c, s in zip(q, self.strides)), out=row)
            if group.kind == DISCRETE_HEISENBERG and q[1]:
                row += x * int(q[1])
        return out


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
    """Metric ball descriptor.

    A discrete ball carries its elements as a sorted int64 key array (see
    ``_keys``); ``points`` decodes them into tuples, in key order, on first
    use.  A continuous ball has neither.
    """

    metric: PeriodicMetric
    center: tuple
    radius: float
    closed: bool
    keys: np.ndarray | None
    measure: float
    _points: tuple | None = field(default=None, init=False, repr=False)

    @property
    def points(self) -> tuple | None:
        if self.keys is not None and self._points is None:
            self._points = tuple(map(tuple, _coords(self.metric.group, self.keys).tolist()))
        return self._points

    def translate(self, x: tuple) -> "Ball":
        """Left translate x * B (same radius, elements moved along)."""
        group = self.metric.group
        center = group.multiply(x, self.center)
        keys = None
        if self.keys is not None:
            moved = group.multiply_array(x, _coords(group, self.keys))
            keys = np.sort(_keys(group, moved))
        return Ball(self.metric, center, self.radius, self.closed, keys, self.measure)


def _word_spheres(metric: PeriodicMetric, int_radius: int) -> list:
    """Sorted key arrays of the word spheres of radius 0, ..., int_radius."""
    metric._grow_layers(int_radius)
    return metric._layers[: int_radius + 1]


def gauge_ball_estimate(radius: float) -> float:
    """The candidates a gauge ball of this radius enumerates: every (x, y)
    with |x|, |y| <= radius and, for each, an interval of z of length
    radius^2 / 2; a bound on the ball's elements."""
    return (2 * math.floor(radius) + 1) ** 2 * (radius * radius / 2.0 + 2)


def _gauge_ball_keys(metric: PeriodicMetric, radius: float, closed: bool) -> np.ndarray:
    key = (round(radius, 12), closed)
    if key in metric._gauge_cache:
        return metric._gauge_cache[key]
    m = int(math.floor(radius))
    span = radius * radius / 4.0
    est = gauge_ball_estimate(radius)
    if est > ball_budget():
        raise BudgetExceededError(f"gauge ball estimate {est:.0f} exceeds budget")
    # every (x, y) with |x|, |y| <= m, then its z interval, in tuple order, in
    # slabs of x of at most _GAUGE_SLAB candidates (or one x)
    width = max(1, _GAUGE_SLAB // ((2 * m + 1) * (int(2 * span) + 1)))
    slabs = []
    for x0 in range(-m, m + 1, width):
        x, y = (c.ravel() for c in np.meshgrid(np.arange(x0, min(x0 + width, m + 1)),
                                               np.arange(-m, m + 1), indexing="ij"))
        z_mid = x * y / 2.0
        z_lo = np.ceil(z_mid - span).astype(np.int64)
        counts = np.floor(z_mid + span).astype(np.int64) - z_lo + 1
        x, y = np.repeat(x, counts), np.repeat(y, counts)
        z = np.repeat(z_lo - (np.cumsum(counts) - counts), counts) + np.arange(len(x))
        # _cygan_gauge's operations, element by element
        t = z - x * y / 2.0
        quartic = (x * x + y * y) ** 2 + 16.0 * t * t
        gauge = quartic ** 0.25
        # numpy's vectorised pow may round differently from the libm pow that
        # _cygan_gauge calls: near the radius, take the scalar's own
        near = np.flatnonzero(np.abs(gauge - radius) <= 1e-12 * radius)
        gauge[near] = [q ** 0.25 for q in quartic[near].tolist()]
        inside = gauge <= radius if closed else gauge < radius
        slabs.append(_keys(metric.group, np.stack([x[inside], y[inside], z[inside]], axis=1)))
    out = np.concatenate(slabs)
    metric._gauge_cache[key] = out
    return out


def _effective_word_radius(radius: float, closed: bool) -> int:
    # word distances are integers, so open/closed balls reduce to int radii
    return int(math.floor(radius)) if closed else int(math.ceil(radius)) - 1


def ball(metric: PeriodicMetric, center: tuple | None = None, radius: float = 1.0,
         closed: bool = True) -> Ball:
    """Metric ball; enumerated (and translated from the origin) when discrete."""
    if radius < 0:
        raise ValueError("radius must be >= 0")
    group = metric.group
    center = group.identity() if center is None else center
    if metric.kind == EUCLIDEAN_NORM:
        vol = _unit_ball_volume(group.dim) * radius ** group.dim
        return Ball(metric, center, radius, closed, None, vol)
    if metric.kind == HOMOGENEOUS_HEISENBERG:
        keys = _gauge_ball_keys(metric, radius, closed)
    else:
        spheres = _word_spheres(metric, _effective_word_radius(radius, closed))
        keys = np.sort(np.concatenate(spheres)) if spheres else np.zeros(0, dtype=np.int64)
    b = Ball(metric, group.identity(), radius, closed, keys, float(len(keys)))
    return b if center == group.identity() else b.translate(center)


def ball_measure(metric: PeriodicMetric, radius: float, closed: bool = True) -> float:
    """Haar measure of the ball: volume if continuous, point count if discrete."""
    if metric.kind == EUCLIDEAN_NORM:
        return _unit_ball_volume(metric.group.dim) * radius ** metric.group.dim
    if metric.kind == WORD_METRIC:
        spheres = _word_spheres(metric, _effective_word_radius(radius, closed))
        return float(sum(len(sphere) for sphere in spheres))
    return ball(metric, None, radius, closed).measure


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
    ball_measure(metric, radii[-1], closed=True)  # one BFS grows every ball
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
    if any(not 0.0 < frac <= 1.0 for frac in s_fracs):
        raise ValueError("s fractions must lie in (0, 1]")
    ball_measure(metric, max(r_samples, default=0.0), closed=False)  # one BFS grows every ball
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


def _left_translates(group: GroupModel, keys: np.ndarray, x: tuple) -> np.ndarray:
    """Keys of x * p for packed p, all in the key range: each field moves by x's
    coordinate, H3's z also by x_0 * p_1; Z_N x Z_N wraps, so it decodes."""
    if group.kind == FINITE_CYCLIC_SQ:
        return _keys(group, group.multiply_array(x, _coords(group, keys)))
    bits = 63 // group.dim
    out = keys + sum(c << bits * (group.dim - 1 - i) for i, c in enumerate(x))
    if group.kind == DISCRETE_HEISENBERG:
        out += x[0] * (((keys >> bits) & ((1 << bits) - 1)) - (1 << bits - 1))
    return out


def _field_bounds(group: GroupModel, keys: np.ndarray) -> tuple:
    """Per-field least and greatest coordinates of packed elements; signed on Z_N x Z_N."""
    if group.kind == FINITE_CYCLIC_SQ:
        n = group.modulus
        pts = (_coords(group, keys) + n // 2) % n - n // 2
        return pts.min(axis=0).tolist(), pts.max(axis=0).tolist()
    bits = 63 // group.dim
    fields = [(keys >> bits * (group.dim - 1 - i)) & ((1 << bits) - 1) for i in range(group.dim)]
    offset = 1 << bits - 1
    return [int(f.min()) - offset for f in fields], [int(f.max()) - offset for f in fields]


def folner_ratio(metric: PeriodicMetric, k_n: Ball, k: Ball) -> float:
    """mu(K_n K intersect K_n^c K) / mu(K_n) for balls K_n and K.

    K must be centered at the identity, and K_n must not be empty.  An x in
    K_n K lies outside K_n^c K when x q^-1 is in K_n for every q in K; K is
    symmetric, so that is when x q is.  Discrete kinds count exactly on a
    bitmap of a box holding K_n K: the cells of K_n are marked, then each
    right translate K_n q, q != e, is gathered into a mask of those x and
    marked.  K_n is first translated back to the identity: the ratio is
    left-invariant, and on H3 a far center would shear the box.  The
    euclidean kind has the closed annulus form.
    """
    group = metric.group
    if k.center != group.identity():
        raise ValueError("K must be centered at the identity")
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
    keys = k_n.keys
    if k_n.center != group.identity():
        keys = _left_translates(group, keys, group.inverse(k_n.center))
    (lo, hi), (q_lo, q_hi) = _field_bounds(group, keys), _field_bounds(group, k.keys)
    lo_prod = [a + b for a, b in zip(lo, q_lo)]
    hi_prod = [a + b for a, b in zip(hi, q_hi)]
    if group.kind == DISCRETE_HEISENBERG:  # p * q also moves z by x * q_y
        xy = [x * y for x in (lo[0], hi[0]) for y in (q_lo[1], q_hi[1])]
        lo_prod[2] += min(xy)
        hi_prod[2] += max(xy)
    box = _BallBox.spanning(group, lo_prod, hi_prod, budget, "Folner product set")
    cells = box.index(keys)
    qs = _coords(group, k.keys)
    moved = box.right_translates(cells, qs[qs.any(axis=1)])
    inside = np.zeros(box.cells, dtype=bool)
    inside[cells] = True
    interior = inside[moved].all(axis=0)
    inside[moved] = True
    return (np.count_nonzero(inside) - np.count_nonzero(interior)) / k_n.measure


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
    ball_measure(metric, r1 + (count - 1) * step, closed=True)  # one BFS grows every ball
    return [ball(metric, None, r1 + i * step, closed=True) for i in range(count)]
