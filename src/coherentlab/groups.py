"""Concrete groups of polynomial growth with periodic metrics.

Four desk-scale models are shipped: Euclidean R^d with Lebesgue measure, the
integer lattice Z^d, the discrete Heisenberg group H3(Z) in normal form, and
the finite torus Z_N x Z_N, each with counting measure.  On top of them sit
metric balls about the identity (enumerated for the discrete kinds),
growth-exponent and annular-decay diagnostics, and Folner ratios on R^d, Z^d
and H3.  Translates x K are the callers' business: the counting code moves
its centres, not its balls.
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
    ``homogeneous_heisenberg`` (Cygan gauge) on H3(Z).  Word spheres are
    cached on the instance and grown under the element budget.  For each
    radius the cache holds the sphere's size and its representatives: on
    Z^d and H3 one per orbit of the generator sign flips (see the quotient
    section below), on Z_N x Z_N every element.  Ball measures read the
    sizes only; a ball's sorted keys are expanded from the representatives
    of its spheres, and the largest ball expanded so far is cached.  The
    growth, annular and Folner sweeps grow their largest word ball first, in
    one BFS, and Folner ratios count on a box bitmap.
    """

    kind: str
    group: GroupModel
    _sizes: list = field(default_factory=list, repr=False)  # elements of sphere r
    _reps: list = field(default_factory=list, repr=False)   # its representatives, (dim, n)
    # the largest word ball expanded so far: its radius and sorted keys
    _ball: tuple = field(default=(-1, np.zeros(0, dtype=np.int64)), repr=False)
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
        _keys(group, np.array([el], dtype=np.int64))  # raises outside the key range
        x, y, z = el  # brought to its representative (see the sign-flip quotient)
        if (x < 0) != (y < 0):
            z = -z
        x, y = abs(x), abs(y)
        if not x * y:
            z = abs(z)
        # a word of length R has |x| + |y| <= R and |z| <= floor(R^2 / 4)
        radius = math.isqrt(4 * abs(z))
        while radius * radius // 4 < abs(z):
            radius += 1
        radius = max(radius, x + y)
        self._grow_layers(radius)
        rep = np.array([[x], [y], [z]], dtype=np.int64)  # its flip orbit's representative
        while not (self._reps[radius] == rep).all(axis=0).any():
            radius += 1
            self._grow_layers(radius)
        return radius

    def _grow_layers(self, up_to: int) -> None:
        """Extend the cached word spheres out to word length ``up_to``.

        On Z^d and H3 the BFS runs on the quotient by the generator sign
        flips, on a boolean bitmap of the box that holds the representatives
        of the ball of radius ``up_to`` (see ``_BallBox.around``): each new
        sphere is the right translates of the last sphere's representatives
        by the generators, brought to their representatives, less the cells
        already marked, sorted and deduplicated (see ``_neighbour_cells``);
        its size is the sum of their orbit sizes (see ``_sphere_size``).  The
        flips are automorphisms that keep the generating set, so they keep
        word length, and the representatives of sphere r + 1 are those of the
        translates of sphere r's.  The generators are symmetric, so every
        neighbour of sphere r lies in sphere r - 1, r or r + 1: only the last
        two cached spheres are marked when a call starts.  On Z_N x Z_N
        sphere r is read off the closed form of the word length (see
        ``_torus_sphere``), each element its own representative, out to the
        diameter and then one empty sphere, after which the torus stops
        growing.
        """
        group = self.group
        if not self._sizes:
            self._sizes.append(1)
            self._reps.append(np.zeros((group.dim, 1), dtype=np.int64))
        if len(self._sizes) > up_to or not self._sizes[-1]:
            return
        budget = ball_budget()
        if group.kind == FINITE_CYCLIC_SQ:
            last = min(up_to, 2 * (group.modulus // 2))  # the diameter
            size = _torus_ball_size(group.modulus, last)
            if size > budget:
                raise BudgetExceededError(
                    f"word ball of radius {last} has {size} elements, over budget {budget} "
                    f"({BUDGET_ENV_VAR})")
            spheres = [_torus_sphere(group, r) for r in range(len(self._sizes), last + 1)]
            if up_to > last:
                spheres.append(np.zeros((2, 0), dtype=np.int64))
            self._sizes.extend(sphere.shape[1] for sphere in spheres)
            self._reps.extend(spheres)
            return
        box = _BallBox.around(group, up_to, budget)
        unseen = np.ones(box.cells, dtype=bool)
        for reps in self._reps[-2:]:
            unseen[box.cells_at(reps)] = False
        reps = self._reps[-1]
        cells = box.cells_at(reps)
        total = sum(self._sizes)
        while len(self._sizes) <= up_to:
            moved = _neighbour_cells(group, box, cells, reps)
            # sorted runs, which a stable sort merges
            moved = np.sort(moved[unseen[moved]], kind="stable")
            first = np.ones(len(moved), dtype=bool)
            first[1:] = moved[1:] != moved[:-1]
            cells = moved[first]
            unseen[cells] = False
            reps = box.points_at(cells)
            size = _sphere_size(group, reps)
            total += size
            if total > budget:
                raise BudgetExceededError(
                    f"word ball enumeration exceeded budget {budget} ({BUDGET_ENV_VAR}) "
                    f"at radius {len(self._sizes)}")
            self._sizes.append(size)
            self._reps.append(reps)


# -- Sign-flip quotient of Z^d and H3 ---------------------------------------
#
# Inverting one generator pair is an automorphism of Z^d (x_i -> -x_i) and of
# H3 (a -> a^-1 maps (x, y, z) to (-x, y, -z), b -> b^-1 maps it to
# (x, -y, -z)) that keeps the generating set, so it keeps word length.  The
# orbit of an element under these flips is represented by its greatest element
# in the order of the keys: the one with every x_i >= 0 on Z^d, and
# (|x|, |y|, +-z) on H3, where z changes sign once for each negative
# coordinate and becomes |z| when x = 0 or y = 0, since the flip of that
# coordinate alone moves z to -z.


def _flip_signs(group: GroupModel) -> list:
    """The signs the generator sign flips put on the coordinates: every sign
    vector on Z^d; (e, d, e d) for e, d = +-1 on H3; only the identity's on
    Z_N x Z_N, whose spheres keep every element."""
    if group.kind == DISCRETE_HEISENBERG:
        return [(1, 1, 1), (-1, 1, -1), (1, -1, -1), (-1, -1, 1)]
    if group.kind == FINITE_CYCLIC_SQ:
        return [(1, 1)]
    return list(itertools.product((1, -1), repeat=group.dim))


def _sphere_size(group: GroupModel, reps: np.ndarray) -> int:
    """Elements in the orbits of the columns of a (dim, n) array of
    representatives.  An orbit has 2^(nonzero x_i) elements on Z^d.  On H3
    it has 4 off the walls x = 0 and y = 0; on one wall, 2 if z = 0 and 4
    otherwise; on both, 1 if z = 0 and 2 otherwise."""
    if group.kind != DISCRETE_HEISENBERG:
        return int(np.left_shift(1, np.count_nonzero(reps, axis=0)).sum())
    x, y, z = reps == 0
    axis = x & y
    return (4 * reps.shape[1] - 2 * np.count_nonzero(z & (x | y))
            - 2 * np.count_nonzero(axis) + np.count_nonzero(axis & z))


def _neighbour_cells(group: GroupModel, box: "_BallBox", cells: np.ndarray,
                     reps: np.ndarray) -> np.ndarray:
    """Cells of the representatives of p q for every representative p at
    these sorted cells of the box (its coordinates the columns of ``reps``)
    and every generator q, in one sorted run per generator but near the
    walls.  On Z^d, p + e_i moves a cell by stride_i, and so does p - e_i
    but at x_i = 0, where its representative is p + e_i and it is left out.
    On H3, p a and p b = (x, y + 1, z + x) move a cell by stride_x and
    stride_y + x, and p a^-1 and p b^-1 = (x, y - 1, z - x) back, but at the
    walls: p a^-1 is (0, y, |z|) at x = 1 and (1, y, -z) at x = 0, which is
    p a at y = 0; p b^-1 is (x, 0, |z - x|) at y = 1 and (x, 1, x - z) at
    y = 0, which is p b at x = 0."""
    if group.kind != DISCRETE_HEISENBERG:
        runs = []
        for x, stride in zip(reps, box.strides):
            runs += [cells + stride, (cells - stride)[x > 0]]
        return np.concatenate(runs)
    sx, sy, _ = box.strides
    x, y, z = reps
    n = len(cells)
    out = np.empty(4 * n, dtype=np.int64)
    by_a, by_b, by_a_inv, by_b_inv = out[:n], out[n:2 * n], out[2 * n:3 * n], out[3 * n:]
    step = x + sy
    np.add(cells, sx, out=by_a)
    np.add(cells, step, out=by_b)
    np.subtract(cells, sx, out=by_a_inv)
    np.subtract(cells, step, out=by_b_inv)
    x0, x1 = np.searchsorted(cells, (sx, 2 * sx))  # the rows with x = 0, then x = 1
    by_a_inv[:x0] += 2 * sx - 2 * z[:x0] * (y[:x0] > 0)
    by_a_inv[x0:x1] -= 2 * np.minimum(z[x0:x1], 0)
    wall = np.flatnonzero(y <= 1)
    x, y, z = x[wall], y[wall], z[wall]
    over = x - z
    by_b_inv[wall] += np.where(y == 0, 2 * sy + 2 * over * (x > 0), 2 * np.maximum(over, 0))
    return out


def _expand(group: GroupModel, reps: list, size: int) -> np.ndarray:
    """Sorted ``_keys`` of the ``size`` elements in the orbits of the
    columns of these (dim, n) arrays of representatives.  Keys are linear in
    their fields, so the key of an image is the identity's plus
    sum_i +-c_i 2^(bits (dim - 1 - i)) with the flip's signs.  An image equal
    to one of an earlier flip is set to the greatest int64, so the keys are
    the first ``size`` of the sorted images."""
    bits = 63 // group.dim
    fields = [c << bits * (group.dim - 1 - i) for i, c in enumerate(np.concatenate(reps, axis=1))]
    flips = _flip_signs(group)
    images = np.empty((len(flips), len(fields[0])), dtype=np.int64)
    images[:] = sum(1 << bits * i + bits - 1 for i in range(group.dim))  # the identity
    for j, (row, signs) in enumerate(zip(images, flips)):
        for f, sign in zip(fields, signs):
            if sign > 0:
                row += f
            else:
                row -= f
        repeats = np.zeros(len(row), dtype=bool)
        for earlier in images[:j]:
            repeats |= row == earlier
        row[repeats] = np.iinfo(np.int64).max
    keys = images.ravel()
    keys.sort()
    return keys[:size]


def _torus_ball_size(n: int, radius: int) -> int:
    """Elements of Z_N x Z_N at word length <= radius, radius <= the diameter.

    The signed digits s_i in [-lo, hi], lo = (N - 1) // 2 and hi = N // 2,
    stand for the elements one each, at word length |s_x| + |s_y|.  The ell^1
    diamond of Z^2 has 2 R^2 + 2 R + 1 points, (R - m)^2 of them past each
    side at distance m, and (t + 1) (t + 2) / 2 with t = R - a - b - 2 past
    the two sides at a and b of each corner."""
    cut = ((n - 1) // 2, n // 2)
    past = sum(max(radius - m, 0) ** 2 for m in cut)
    corners = sum((t + 1) * (t + 2) // 2 for a in cut for b in cut
                  for t in [radius - a - b - 2] if t >= 0)
    return 2 * radius * radius + 2 * radius + 1 - 2 * past + corners


def _torus_sphere(group: GroupModel, radius: int) -> np.ndarray:
    """The (2, n) array of the elements of the Z_N x Z_N sphere of this
    radius: the signed digits s_i in [-(N - 1) // 2, N // 2] with
    |s_x| + |s_y| = radius, mod N."""
    n = group.modulus
    lo, hi = (n - 1) // 2, n // 2
    x = np.arange(-min(radius, lo), min(radius, hi) + 1)
    y = radius - np.abs(x)
    x, y = np.r_[x, x[y > 0]], np.r_[y, -y[y > 0]]
    inside = (y >= -lo) & (y <= hi)
    return np.stack([x[inside], y[inside]]) % n


@dataclass(frozen=True)
class _BallBox:
    """A row-major box of elements of Z^d or H3: the box of the word-ball
    BFS's representatives, and the box over K_n K of the Folner count.

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
    def spanning(cls, group: GroupModel, lo: Sequence[int], hi: Sequence[int], budget: int,
                 what: str, per_element: int) -> "_BallBox":
        """The box of the elements with lo_i <= c_i <= hi_i, 1 byte per cell
        as a bitmap.  A box of more than ``per_element`` cells per budgeted
        element raises before anything is allocated: the caller's bound on
        the cells its box needs per element of the set it holds; a box
        outside the key range raises OverflowError."""
        shape = [h - l + 1 for l, h in zip(lo, hi)]
        cells = math.prod(shape)
        if cells > per_element * budget:
            raise BudgetExceededError(
                f"{what} exceeds budget {budget} ({BUDGET_ENV_VAR}): "
                f"its box has {cells} cells, more than {per_element} per budgeted element")
        strides = [math.prod(shape[i + 1:]) for i in range(group.dim)]
        bits = 63 // group.dim
        corners = np.array([lo, hi], dtype=np.int64)
        base = int(_keys(group, corners)[0])  # raises outside the key range
        excess = [(1 << bits * (group.dim - 1 - i)) - strides[i] for i in range(group.dim - 1)]
        return cls(group, tuple(lo), tuple(strides), cells, base, tuple(excess))

    @classmethod
    def around(cls, group: GroupModel, radius: int, budget: int) -> "_BallBox":
        """The box of the representatives of the word ball of this radius
        (see the sign-flip quotient), for the factories' generator stars:
        0 <= x_i <= R on Z^d; on H3 0 <= x, y <= R and |z| <= floor(R^2 / 4),
        since each b step adds the current x to z and k b steps among R leave
        |x| <= R - k, so they add at most k (R - k).  The box of Z^d has
        (R + 1)^d cells over the C(R + d, d) ball elements with every x_i >= 0,
        so at most d! per ball element; on H3 the cells per ball element peak
        at 5/3 (radius 4) and tend to 36 / 31, so 2 bound them.  A box over
        the budget thus holds a ball over it, which the BFS would refuse at
        some radius anyway."""
        hi = [radius] * group.dim
        lo = [0] * group.dim
        per_element = math.factorial(group.dim)
        if group.kind == DISCRETE_HEISENBERG:
            hi[2] = radius * radius // 4
            lo[2] = -hi[2]
            per_element = 2
        return cls.spanning(group, lo, hi, budget, f"word ball of radius {radius}", per_element)

    def index(self, keys: np.ndarray) -> np.ndarray:
        """Cells of packed elements that lie in the box."""
        group = self.group
        bits = 63 // group.dim
        cells = keys - self.base
        for i, excess in enumerate(self.excess):
            field = (keys >> bits * (group.dim - 1 - i)) & ((1 << bits) - 1)
            cells -= (field - (self.lo[i] + (1 << bits - 1))) * excess
        return cells

    def cells_at(self, pts: np.ndarray) -> np.ndarray:
        """Cells of the columns of a (dim, n) array of elements in the box."""
        cells = pts[-1] - self.lo[-1]
        for c, lo, stride in zip(pts[:-1], self.lo, self.strides):
            cells += (c - lo) * stride
        return cells

    def points_at(self, cells: np.ndarray) -> np.ndarray:
        """Inverse of ``cells_at``: the (dim, n) array of the elements at
        these cells."""
        out = np.empty((self.group.dim, len(cells)), dtype=np.int64)
        for row, lo, stride in zip(out[:-1], self.lo, self.strides):
            np.floor_divide(cells, stride, out=row)
            cells = cells - row * stride
            if lo:
                row += lo
        np.add(cells, self.lo[-1], out=out[-1])
        return out

    def right_translates(self, cells: np.ndarray, qs) -> np.ndarray:
        """Cells of p * q for every p at ``cells``, one row per q in ``qs``.
        The caller keeps every product in the box.  Each row keeps the order
        of ``cells``: p * q moves a cell by q's shift, plus x * q_y on H3, and
        x never falls as the cell grows."""
        group = self.group
        out = np.empty((len(qs), len(cells)), dtype=np.int64)
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
    """Metric ball about the identity.

    A discrete ball carries its elements as a sorted int64 key array (see
    ``_keys``): a word ball's keys are expanded from the representatives of
    its cached word spheres, and a gauge ball's are enumerated.  ``points``
    decodes the keys into tuples, in key order, on first use.  A continuous
    ball has neither.
    """

    metric: PeriodicMetric
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


def _word_ball_keys(metric: PeriodicMetric, int_radius: int) -> np.ndarray:
    """Sorted keys of the word ball of this integer radius.  The largest
    ball expanded so far is cached: a larger one expands only the spheres
    past it and merges the two sorted runs, a smaller one is expanded
    afresh."""
    metric._grow_layers(int_radius)
    int_radius = min(int_radius, len(metric._sizes) - 1)
    done, keys = metric._ball
    if int_radius < done:
        return _expand(metric.group, metric._reps[: int_radius + 1],
                       sum(metric._sizes[: int_radius + 1]))
    if int_radius > done:
        shell = _expand(metric.group, metric._reps[done + 1:int_radius + 1],
                        sum(metric._sizes[done + 1:int_radius + 1]))
        keys = np.sort(np.concatenate([keys, shell]), kind="stable")  # two sorted runs
        keys.flags.writeable = False  # shared by every Ball of this radius
        metric._ball = (int_radius, keys)
    return keys


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
                    _unit_ball_volume(metric.group.dim) * radius ** metric.group.dim)
    if metric.kind == HOMOGENEOUS_HEISENBERG:
        keys = _gauge_ball_keys(metric, radius, closed)
    else:
        keys = _word_ball_keys(metric, _effective_word_radius(radius, closed))
    return Ball(metric, radius, closed, keys, float(len(keys)))


def ball_measure(metric: PeriodicMetric, radius: float, closed: bool = True) -> float:
    """Haar measure of the ball: volume if continuous, point count if discrete."""
    _check_radius(metric, radius)
    if metric.kind == EUCLIDEAN_NORM:
        return _unit_ball_volume(metric.group.dim) * radius ** metric.group.dim
    if metric.kind == WORD_METRIC:
        int_radius = _effective_word_radius(radius, closed)
        metric._grow_layers(int_radius)
        return float(sum(metric._sizes[: int_radius + 1]))
    return ball(metric, radius, closed).measure


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
    for name, values in (("r_samples", r_samples), ("s_fracs", s_fracs)):
        if not len(values):
            raise ValueError(f"{name} must not be empty")
    if any(not 0.0 < frac <= 1.0 for frac in s_fracs):
        raise ValueError("s fractions must lie in (0, 1]")
    ball_measure(metric, max(r_samples), closed=False)  # one BFS grows every ball
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


def _field_bounds(group: GroupModel, keys: np.ndarray) -> tuple:
    """Per-field least and greatest coordinates of packed elements."""
    bits = 63 // group.dim
    fields = [(keys >> bits * (group.dim - 1 - i)) & ((1 << bits) - 1) for i in range(group.dim)]
    offset = 1 << bits - 1
    return [int(f.min()) - offset for f in fields], [int(f.max()) - offset for f in fields]


def folner_ratio(metric: PeriodicMetric, k_n: Ball, k: Ball) -> float:
    """mu(K_n K intersect K_n^c K) / mu(K_n) for balls K_n and K on R^d, Z^d
    or H3.

    K_n must not be empty.  An x in K_n K lies outside K_n^c K when x q^-1
    is in K_n for every q in K; K is a ball about the identity, so it is
    symmetric, and that is when x q is.  Z^d and H3 count exactly on a
    bitmap of a box holding K_n K: the cells of K_n are marked, then each
    right translate K_n q, q != e, is gathered into a mask of those x and
    marked.  The euclidean kind has the closed annulus form.  No run counts
    one on the finite torus, which raises.
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
    keys = k_n.keys
    (lo, hi), (q_lo, q_hi) = _field_bounds(group, keys), _field_bounds(group, k.keys)
    lo_prod = [a + b for a, b in zip(lo, q_lo)]
    hi_prod = [a + b for a, b in zip(hi, q_hi)]
    if group.kind == DISCRETE_HEISENBERG:  # p * q also moves z by x * q_y
        xy = [x * y for x in (lo[0], hi[0]) for y in (q_lo[1], q_hi[1])]
        lo_prod[2] += min(xy)
        hi_prod[2] += max(xy)
    # for balls K_n and K, K_n K is the ball B of radius r_n + r_K, with
    # |B| <= |K_n| |K|, and this box is B's bounding box: at most d! cells per
    # element of B on Z^d and 6 on H3 (it peaks at 5.41, radius 6)
    per_element = 6 if group.kind == DISCRETE_HEISENBERG else math.factorial(group.dim)
    box = _BallBox.spanning(group, lo_prod, hi_prod, budget, "Folner product set", per_element)
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
    return [ball(metric, r1 + i * step, closed=True) for i in range(count)]
