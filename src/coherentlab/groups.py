"""Concrete groups of polynomial growth with periodic metrics.

Four desk-scale models are shipped: Euclidean R^d with Lebesgue measure, the
integer lattice Z^d, the discrete Heisenberg group H3(Z) in normal form, and
the finite torus Z_N x Z_N, each with counting measure.  On top of them sit
metric balls (enumerated for the discrete kinds), growth-exponent and
annular-decay diagnostics, and Folner machinery built from metric balls.
"""

from __future__ import annotations

import itertools
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
    """Element budget for ball enumeration, overridable via the environment."""
    raw = os.environ.get(BUDGET_ENV_VAR, "")
    return int(raw) if raw.strip() else DEFAULT_BALL_BUDGET


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

    def multiply_array(self, pts: np.ndarray, b: tuple) -> np.ndarray:
        """Right products p * b for the rows p of an (n, dim) int64 array."""
        out = pts + np.asarray(b, dtype=np.int64)
        if self.kind == DISCRETE_HEISENBERG:
            out[:, 2] += pts[:, 0] * b[1]
        elif self.kind == FINITE_CYCLIC_SQ:
            out %= self.modulus
        return out

    def elements(self) -> list:
        """All elements; finite kind only."""
        if self.kind != FINITE_CYCLIC_SQ:
            raise ValueError("elements() requires the finite kind")
        n = self.modulus
        return [(k, l) for k in range(n) for l in range(n)]


def _int_det(rows: Sequence[tuple]) -> int:
    """Exact determinant of a square integer matrix (fraction-free Bareiss)."""
    m = [[int(v) for v in row] for row in rows]
    sign, prev = 1, 1
    for k in range(len(m) - 1):
        if m[k][k] == 0:
            pivot = next((i for i in range(k + 1, len(m)) if m[i][k]), None)
            if pivot is None:
                return 0
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        for i in range(k + 1, len(m)):
            for j in range(k + 1, len(m)):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[-1][-1]


def _validate_generators(group: GroupModel) -> None:
    gens = set(group.generators)
    if not gens:
        raise ValueError("generating set is empty")
    if {group.inverse(g) for g in gens} != gens:
        raise ValueError("generating set is not symmetric")
    if group.identity() in gens:
        raise ValueError("generating set must not contain the identity")
    if any(len(g) != group.dim for g in gens):
        raise ValueError(f"generators {sorted(gens)} need {group.dim} coordinates each")
    if group.kind == INTEGER_LATTICE:
        # the generators span Z^d iff their d x d minors have gcd 1
        # (rank < d makes every minor 0)
        index = 0
        for rows in itertools.combinations(sorted(gens), group.dim):
            index = math.gcd(index, _int_det(rows))
            if index == 1:
                break
        if index != 1:
            raise ValueError(f"generators {sorted(gens)} span a proper subgroup of "
                             f"Z^{group.dim} (gcd of the {group.dim}x{group.dim} "
                             f"minors is {index})")
    # two BFS layers must strictly grow for the infinite kinds
    if group.kind in (INTEGER_LATTICE, DISCRETE_HEISENBERG):
        try:
            word_metric(group)._grow_layers(2)
        except ValueError as exc:
            raise ValueError("generators do not generate two growing layers") from exc


def euclidean(dim: int) -> GroupModel:
    """R^d with vector addition and Lebesgue measure."""
    if dim < 1:
        raise ValueError("dim must be >= 1")
    return GroupModel(kind=EUCLIDEAN, dim=dim, measure="lebesgue")


def integer_lattice(dim: int, generators: tuple = ()) -> GroupModel:
    """Z^d with the standard generator star by default."""
    if dim < 1:
        raise ValueError("dim must be >= 1")
    if not generators:
        gens = []
        for i in range(dim):
            e = [0] * dim
            e[i] = 1
            gens.append(tuple(e))
            e2 = list(e)
            e2[i] = -1
            gens.append(tuple(e2))
        generators = tuple(gens)
    group = GroupModel(kind=INTEGER_LATTICE, dim=dim, generators=generators)
    _validate_generators(group)
    return group


def discrete_heisenberg() -> GroupModel:
    """H3(Z) in normal form with generators a^(+-1), b^(+-1)."""
    gens = ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0))
    group = GroupModel(kind=DISCRETE_HEISENBERG, dim=3, generators=gens)
    _validate_generators(group)
    return group


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


def _unique(keys: np.ndarray) -> np.ndarray:
    """Sorted distinct keys.  numpy 2.4's np.unique (and so np.isin) hashes
    int64 input, which is about 30x slower than this sort on 5e5 keys."""
    keys = np.sort(keys)
    first = np.ones(len(keys), dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    return keys[first]


def _in_sorted(sorted_keys: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Membership of each key in a sorted key array, by binary search."""
    if not len(sorted_keys):
        return np.zeros(len(keys), dtype=bool)
    idx = np.minimum(np.searchsorted(sorted_keys, keys), len(sorted_keys) - 1)
    return sorted_keys[idx] == keys


# -- Metrics ------------------------------------------------------------------


def _std_lattice_generators(group: GroupModel) -> bool:
    expected = set()
    for i in range(group.dim):
        e = [0] * group.dim
        e[i] = 1
        expected.add(tuple(e))
        e[i] = -1
        expected.add(tuple(e))
    return set(group.generators) == expected


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
    are cached on the instance as sorted key arrays and grown incrementally
    under the element budget.
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
        if group.kind == INTEGER_LATTICE and _std_lattice_generators(group):
            return int(sum(abs(x) for x in el))
        if group.kind == FINITE_CYCLIC_SQ:
            n = group.modulus
            return int(sum(min(x % n, (-x) % n) for x in el))
        key = _keys(group, np.array([el], dtype=np.int64))
        radius = 0
        while True:
            self._grow_layers(radius)
            if _in_sorted(self._layers[radius], key)[0]:
                return radius
            radius += 1

    def _grow_layers(self, up_to: int) -> None:
        """Extend the cached BFS spheres out to word length ``up_to``.

        The generators are symmetric, so every neighbour of sphere r lies in
        sphere r - 1, r or r + 1: new candidates are checked against the last
        two spheres only.
        """
        group = self.group
        if not self._layers:
            self._layers.append(_keys(group, np.array([group.identity()], dtype=np.int64)))
        budget = ball_budget()
        total = sum(len(layer) for layer in self._layers)
        while len(self._layers) <= up_to:
            frontier = _coords(group, self._layers[-1])
            nxt = _unique(np.concatenate(
                [_keys(group, group.multiply_array(frontier, g)) for g in group.generators]))
            for seen in self._layers[-2:]:
                nxt = nxt[~_in_sorted(seen, nxt)]
            total += len(nxt)
            if total > budget:
                raise BudgetExceededError(
                    f"word ball enumeration exceeded budget {budget} at radius {len(self._layers)}"
                )
            self._layers.append(nxt)
            if not len(nxt) and group.kind != FINITE_CYCLIC_SQ:
                raise ValueError("BFS frontier died out on an infinite kind")


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
    """Metric ball descriptor; discrete kinds carry their enumerated points."""

    metric: PeriodicMetric
    center: tuple
    radius: float
    closed: bool
    points: tuple | None
    measure: float
    _pset: frozenset | None = field(default=None, repr=False)

    def point_set(self) -> frozenset:
        if self.points is None:
            raise ValueError("continuous ball has no point enumeration")
        if self._pset is None:
            self._pset = frozenset(self.points)
        return self._pset

    def contains(self, el: tuple) -> bool:
        if self.points is not None:
            return el in self.point_set()
        d2 = sum((x - y) ** 2 for x, y in zip(el, self.center))
        r2 = self.radius * self.radius
        return d2 <= r2 if self.closed else d2 < r2

    def translate(self, x: tuple) -> "Ball":
        """Left translate x * B (same radius, points moved along)."""
        group = self.metric.group
        center = group.multiply(x, self.center)
        pts = None
        if self.points is not None:
            pts = tuple(group.multiply(x, p) for p in self.points)
        return Ball(self.metric, center, self.radius, self.closed, pts, self.measure)


@dataclass(frozen=True)
class Box:
    """Axis-aligned box region in R^d, usable wherever a counting region is."""

    center: tuple
    half_widths: tuple

    def contains(self, el: tuple) -> bool:
        return all(abs(x - c) <= w for x, c, w in zip(el, self.center, self.half_widths))

    def translate(self, x: tuple) -> "Box":
        return Box(tuple(c + dx for c, dx in zip(self.center, x)), self.half_widths)

    @property
    def measure(self) -> float:
        return float(np.prod([2.0 * w for w in self.half_widths]))


def _word_spheres(metric: PeriodicMetric, int_radius: int) -> list:
    """Sorted key arrays of the word spheres of radius 0, ..., int_radius."""
    if int_radius < 0:
        return []
    metric._grow_layers(int_radius)
    return metric._layers[: int_radius + 1]


def _word_ball_points(metric: PeriodicMetric, int_radius: int) -> tuple:
    spheres = _word_spheres(metric, int_radius)
    if not spheres:
        return ()
    keys = np.sort(np.concatenate(spheres))
    return tuple(map(tuple, _coords(metric.group, keys).tolist()))


def _gauge_ball_points(metric: PeriodicMetric, radius: float, closed: bool) -> tuple:
    key = (round(radius, 12), closed)
    if key in metric._gauge_cache:
        return metric._gauge_cache[key]
    m = int(math.floor(radius))
    span = radius * radius / 4.0
    est = (2 * m + 1) ** 2 * (2 * span + 2)
    if est > ball_budget():
        raise BudgetExceededError(f"gauge ball estimate {est:.0f} exceeds budget")
    pts = []
    for x in range(-m, m + 1):
        for y in range(-m, m + 1):
            z_mid = x * y / 2.0
            z_lo = int(math.ceil(z_mid - span))
            z_hi = int(math.floor(z_mid + span))
            for z in range(z_lo, z_hi + 1):
                g = _cygan_gauge((x, y, z))
                if (g <= radius) if closed else (g < radius):
                    pts.append((x, y, z))
    out = tuple(sorted(pts))
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
        pts = _gauge_ball_points(metric, radius, closed)
    else:
        pts = _word_ball_points(metric, _effective_word_radius(radius, closed))
    if center != group.identity():
        pts = tuple(group.multiply(center, p) for p in pts)
    return Ball(metric, center, radius, closed, pts, float(len(pts)))


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
    rows = []
    for r in r_samples:
        mu_r = ball_measure(metric, r, closed=False)
        if mu_r <= 0:
            raise ValueError(f"open ball of radius {r} is empty")
        for frac in s_fracs:
            if not 0.0 < frac <= 1.0:
                raise ValueError("s fractions must lie in (0, 1]")
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
        if best is None:
            best = (delta, c_needed)  # fallback: smallest requirement seen last
        if c_needed <= c_max:
            return AnnularDecayFit(float(delta), float(c_needed), 0, tuple(rows), c_max)
        best = (delta, c_needed)
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
    """mu(K_n K intersect K_n^c K) / mu(K_n) for balls K_n and K.

    K must be centered at the identity.  Discrete kinds are computed by exact
    set algebra on the keys of the enumerated balls: an element of K_n K lies
    in K_n^c K when one of its right translates by K leaves K_n.  The
    euclidean kind has the closed annulus form.
    """
    group = metric.group
    if k.center != group.identity():
        raise ValueError("K must be centered at the identity")
    if metric.kind == EUCLIDEAN_NORM:
        d = group.dim
        vd = _unit_ball_volume(d)
        rn, rk = k_n.radius, k.radius
        outer = vd * (rn + rk) ** d
        inner = vd * max(rn - rk, 0.0) ** d
        return (outer - inner) / (vd * rn ** d)
    if k_n.points is None or k.points is None:
        raise ValueError("discrete Folner ratio needs enumerated balls")
    if len(k_n.points) * len(k.points) > ball_budget():
        raise BudgetExceededError("Folner product set exceeds budget")
    if not k.points:
        return 0.0  # K_n K is empty
    kn = np.asarray(k_n.points, dtype=np.int64).reshape(-1, group.dim)
    kn_keys = np.sort(_keys(group, kn))
    prod = _unique(np.concatenate(
        [_keys(group, group.multiply_array(kn, q)) for q in k.points]))
    prod_pts = _coords(group, prod)
    boundary = np.zeros(len(prod), dtype=bool)
    for q in k.points:
        boundary |= ~_in_sorted(kn_keys, _keys(group, group.multiply_array(prod_pts, q)))
    return int(np.count_nonzero(boundary)) / len(k_n.points)


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
    return [ball(metric, None, r1 + i * step, closed=True) for i in range(count)]
