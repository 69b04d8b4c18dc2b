"""Frame, Riesz, and Bessel analysis of coherent systems pi(Lambda)g.

Each model owns its point set.  In the time-frequency plane Lambda is a
PointSet: the lattice a Z x b Z, minus an open disk about the origin in hole
runs.  For the Gaussian window on it this module gives truncated-section and
Gram estimates, relative separation, cover-based Bessel bounds and the amalgam
inequality check, all read from reps.GAUSSIAN_PROFILE.  On the finite model's
torus Z_N x Z_N, Lambda is the boolean (N, N) mask that finite_subset and
full_torus build.  The finite_* functions take the model and a window vector;
their exact spectra read the synthesis matrix that finite_synthesis builds
once, and their separation, cover and amalgam checks take Q and K by radius
and compute on the (N, N) masks of reps.torus_ball.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Iterable

import numpy as np

from . import groups, reps
from .reps import RepModel

_TIE = 1e-12  # closed-ball membership slack on squared distances

SECTION_MODE_CAP = 512  # highest Hermite index a truncated section keeps

_BLOCK_CELLS = 1 << 20  # (centre, column) cells per block of a batched count


# -- Point sets -----------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class PointSet:
    """Lambda in the time-frequency plane: the lattice a Z x b Z minus the open
    disk of radius hole_radius about the origin (removal is strict, so points
    on the hole's circle stay).  Build it with lattice()."""

    a: float
    b: float
    hole_radius: float = 0.0

    @property
    def covolume(self) -> float:
        return self.a * self.b

    def _columns(self, cx, cy, radius: float, closed: bool) -> tuple:
        """(k, lo, hi) for equal-length arrays of centres (cx, cy): the lattice
        points (k[j] a, l b) of the disk about centre i are those with
        lo[i, j] <= l <= hi[i, j]; an empty column has lo > hi.  The columns k
        are shared by all centres, and columns outside a centre's own range
        are empty for it.

        A closed disk tests |d|^2 <= radius^2 (1 + _TIE) + _TIE, an open one
        |d|^2 < radius^2.
        Each column's row range comes from the chord half-width
        sqrt(thr - dx^2), widened at each end by more rows than its rounding
        error spans (at most sqrt(2^-53 thr) plus a few ulps of cy); the ends
        then move inward until they pass the membership test itself, so
        points on the circle count exactly as a point-by-point scan counts
        them.  The column and row ranges are budget-checked.
        """
        est = disk_point_estimate(radius, self.a, self.b)
        if est > groups.ball_budget():
            raise groups.BudgetExceededError(
                f"lattice restriction would enumerate ~{est:.3g} points")
        cx = np.asarray(cx, dtype=float)[:, None]
        cy = np.asarray(cy, dtype=float)[:, None]
        k_first = np.floor((cx - radius) / self.a) - 1
        k_last = np.ceil((cx + radius) / self.a) + 1
        k = np.arange(int(k_first.min()), int(k_last.max()) + 1)
        row_lo = np.floor((cy - radius) / self.b) - 1
        row_hi = np.ceil((cy + radius) / self.b) + 1
        thr = radius * radius * (1.0 + _TIE) + _TIE if closed else radius * radius
        dx = k * self.a - cx
        dx_sq = dx * dx
        half = np.sqrt(np.maximum(thr - dx_sq, 0.0))
        pad = 1 + ((2e-8 * math.sqrt(thr) + 1e-15 * np.abs(cy)) / self.b).astype(np.int64)
        lo = np.maximum(np.ceil((cy - half) / self.b) - pad, row_lo).astype(np.int64)
        hi = np.minimum(np.floor((cy + half) / self.b) + pad, row_hi).astype(np.int64)
        hi = np.where((k >= k_first) & (k <= k_last), hi, lo - 1)

        def inside(l):
            dy = l * self.b - cy
            d_sq = dx_sq + dy * dy
            return d_sq <= thr if closed else d_sq < thr

        while (shrink := (lo <= hi) & ~inside(lo)).any():
            lo += shrink
        while (shrink := (hi >= lo) & ~inside(hi)).any():
            hi -= shrink
        return k, lo, hi

    def _points_near(self, cx: float, cy: float, radius: float,
                     closed: bool) -> tuple:
        """(x, y) arrays of the lattice points within `radius` of (cx, cy),
        the hole removed, column by column in increasing k and then l; that is
        lexicographic order."""
        _check_disk_radius(radius)
        k, lo, hi = self._columns([cx], [cy], radius, closed)
        lo, hi = lo[0], hi[0]
        per_col = np.maximum(hi - lo + 1, 0)
        starts = np.cumsum(per_col) - per_col
        rows = np.arange(int(per_col.sum())) - np.repeat(starts - lo, per_col)
        x = np.repeat(k, per_col) * self.a
        y = rows * self.b
        if not self.hole_radius:
            return x, y
        keep = x ** 2 + y ** 2 >= self.hole_radius * self.hole_radius  # strict removal
        return x[keep], y[keep]

    def lattice_points_near(self, cx: float, cy: float, radius: float,
                            closed: bool = True) -> list:
        """Lattice points within `radius` of (cx, cy), the hole removed,
        column by column in increasing k and then l."""
        x, y = self._points_near(cx, cy, radius, closed)
        return list(zip(x.tolist(), y.tolist()))

    def lattice_count_near(self, cx, cy, radius):
        """len(lattice_points_near(cx, cy, radius, closed=True)) on a lattice
        without a hole, summed over the column ranges without building the
        points.

        Scalars give an int.  Arrays of centres, with one radius or one per
        centre (broadcast like cx and cy), give an int64 array; the centres of
        each radius are counted together, in blocks of at most about
        _BLOCK_CELLS (centre, column) cells.
        """
        if self.hole_radius:
            raise ValueError("closed-form counting needs a plain lattice, "
                             f"not hole_radius = {self.hole_radius:g}")
        xs, ys, rs = (np.ravel(v) for v in np.broadcast_arrays(
            np.asarray(cx, dtype=float), np.asarray(cy, dtype=float),
            np.asarray(radius, dtype=float)))
        _check_disk_radius(rs)  # before grouping by radius, which no NaN joins
        counts = np.zeros(xs.size, dtype=np.int64)
        for r in np.unique(rs):  # centres of one radius share their columns
            rows = np.flatnonzero(rs == r)
            # a block's shared columns number at most (x spread + 2 radius) / a + 5
            n_cols = (float(xs[rows].max() - xs[rows].min()) + 2.0 * r) / self.a + 5.0
            step = max(1, int(_BLOCK_CELLS // n_cols))
            for s in range(0, rows.size, step):
                block = rows[s:s + step]
                _, lo, hi = self._columns(xs[block], ys[block], r, closed=True)
                counts[block] = np.maximum(hi - lo + 1, 0).sum(axis=1)
        scalar = np.ndim(cx) == np.ndim(cy) == np.ndim(radius) == 0
        return int(counts[0]) if scalar else counts

    def restrict(self, b: groups.Ball) -> tuple:
        """Exactly the points of Lambda inside the disk b about the origin, in
        lexicographic order.  Raises ValueError, naming the metric's kind, for
        a ball that is not a disk of the plane's euclidean_norm."""
        metric = b.metric
        if metric.kind != groups.EUCLIDEAN_NORM or metric.group.dim != 2:
            raise ValueError(f"restrict takes a disk of the plane's {groups.EUCLIDEAN_NORM}, "
                             f"not a {metric.kind} ball in dimension {metric.group.dim}")
        return tuple(self.lattice_points_near(0.0, 0.0, b.radius, b.closed))


def _check_disk_radius(radius) -> None:
    r = np.asarray(radius, dtype=float)
    if not (r >= 0).all():  # NaN too
        raise ValueError(f"disk radius must be >= 0, got {r[~(r >= 0)][0]}")


def disk_point_estimate(radius: float, a: float, b: float) -> float:
    """(2r/a + 2)(2r/b + 2): the lattice points of a Z x b Z whose columns and
    rows a disk of radius r can reach, the size a restriction is budgeted at."""
    return (2.0 * radius / a + 2.0) * (2.0 * radius / b + 2.0)


def lattice(a: float, b: float, hole_radius: float = 0.0) -> PointSet:
    """a Z x b Z minus the open disk of radius hole_radius about the origin."""
    for name, value in (("a", a), ("b", b), ("hole_radius", hole_radius)):
        if not math.isfinite(value):
            raise ValueError(f"lattice {name} must be finite, got {value}")
    if a <= 0 or b <= 0:
        raise ValueError("lattice spacings must be positive")
    if hole_radius < 0:
        raise ValueError("the hole radius must be nonnegative")
    return PointSet(float(a), float(b), float(hole_radius))


def finite_subset(modulus: int, pts: Iterable[tuple]) -> np.ndarray:
    """The subset of Z_N x Z_N with these points, read mod N, as a boolean
    (N, N) mask."""
    if modulus < 2:
        raise ValueError("modulus must be at least 2")
    idx = np.array([(int(k) % modulus, int(l) % modulus) for (k, l) in pts],
                   dtype=np.intp).reshape(-1, 2)
    mask = np.zeros((modulus, modulus), dtype=bool)
    mask[tuple(idx.T)] = True
    if np.count_nonzero(mask) != len(idx):
        raise ValueError("point set contains duplicate elements")
    return mask


def full_torus(modulus: int) -> np.ndarray:
    return finite_subset(modulus, [(k, l) for k in range(modulus)
                                   for l in range(modulus)])


# -- Frame bounds ------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class FrameBounds:
    """Extremal spectral bounds of a coherent system.

    ``method`` records which matrix was diagonalised; no method is a
    certificate, and every bound is an uncertified ``eigvalsh`` value.
    ``exact_spectrum`` is the whole matrix of the finite model;
    ``exact_spectrum(restriction_radius=...)`` is a lattice Gram truncated to
    a disk and ``truncated_section`` a Hermite section, both estimates of
    the lattice's bounds.  ``spectrum`` is kept for diagnostics and is not
    part of the serialized form.
    """

    lower: float
    upper: float
    kind: str  # frame | riesz | bessel
    method: str
    spectrum: np.ndarray | None = None

    def __post_init__(self):
        if not (0.0 <= self.lower <= self.upper + 1e-15):
            raise ValueError("bounds must satisfy 0 <= A <= B")

    @property
    def condition_number(self) -> float | None:
        if self.lower > 0.0:
            return self.upper / self.lower
        return None

    def to_json(self) -> dict:
        return {"A": self.lower, "B": self.upper, "kind": self.kind,
                "method": self.method, "condition_number": self.condition_number}


def _classify(a: float, b: float) -> str:
    return "frame" if a > 1e-12 * max(b, 1.0) else "bessel"


def _hermitian_eigs(mat: np.ndarray, what: str) -> np.ndarray:
    adj = mat.conj().T
    asym = float(np.max(np.abs(mat - adj))) if mat.size else 0.0
    scale = max(float(np.max(np.abs(mat))), 1.0) if mat.size else 1.0
    if asym > 1e-10 * scale:
        raise ValueError(f"{what} assembly is not Hermitian (deviation {asym:.3g})")
    return np.linalg.eigvalsh((mat + adj) / 2.0)


def _check_same_torus(n: int, lam: np.ndarray) -> None:
    if not (isinstance(lam, np.ndarray) and lam.dtype == bool and lam.shape == (n, n)):
        raise ValueError(f"the finite model needs a finite_subset mask of shape ({n}, {n})")


def finite_synthesis(rep: RepModel, g: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """The synthesis matrix of the finite model: column j is pi(lam_j) g, with
    the points of the mask lam in row-major order."""
    _check_same_torus(rep.n, lam)
    if not lam.any():
        raise ValueError("empty point set")
    gv = np.asarray(g, dtype=complex)
    if gv.shape != (rep.n,):
        raise ValueError("window dimension does not match the model")
    return np.column_stack([reps.apply_rep(rep, x, gv) for x in np.argwhere(lam).tolist()])


def section_mode_count(section_radius: float, margin: float) -> int:
    """Highest Hermite index kept by the truncated section: the pi (R - margin)^2
    modes resolved inside the truncation ball, cut at SECTION_MODE_CAP."""
    return min(SECTION_MODE_CAP, int(math.floor(math.pi * (section_radius - margin) ** 2)))


def _orbit_order(p: np.ndarray) -> tuple:
    """The points p of a section invariant under z -> -z and z -> conj(z),
    reordered as one point per orbit, then the rest: the open quadrant
    x, w > 0 (orbits of 4), then the positive half-axes (orbits of 2), then
    the origin (absent when a hole removes it), then every other point, each
    group in p's order.  Returns the reordered points and the sizes of the
    first three groups."""
    x, w = p[:, 0], p[:, 1]
    quadrant = (x > 0) & (w > 0)
    axes = ((x > 0) & (w == 0)) | ((x == 0) & (w > 0))
    origin = (x == 0) & (w == 0)
    idx = [np.flatnonzero(m) for m in (quadrant, axes, origin, ~(quadrant | axes | origin))]
    return p.take(np.concatenate(idx), axis=0), tuple(len(i) for i in idx[:3])


def _orbit_blocks(coeff: np.ndarray, sizes: tuple) -> list:
    """The even- and odd-mode blocks Re(c c^H) of a section whose columns are
    in the order of _orbit_order, with its group sizes.

    C_n(-z) = (-1)^n C_n(z) and C_n(conj z) = conj C_n(z), so the orbit
    {z, -z, conj z, -conj z} adds one term per point to each parity block:
    the leading columns, weighted 4 on the quadrant, 2 on the half-axes and 1
    at the origin.  A complex row viewed as floats interleaves Re and Im, so
    for a block c of those columns, d = c.view(float) gives d d^T = Re(c c^H).
    """
    n_quadrant, n_axes, n_origin = sizes
    q, h = 2 * n_quadrant, 2 * (n_quadrant + n_axes)
    end = h + 2 * n_origin
    blocks = []
    for d in (coeff[0::2].view(float), coeff[1::2].view(float)):
        s = d[:, :q] @ d[:, :q].T
        s *= 4.0
        s += 2.0 * (d[:, q:h] @ d[:, q:h].T)
        s += d[:, h:end] @ d[:, h:end].T
        blocks.append(s)
    return blocks


def finite_frame_operator_spectrum(phi: np.ndarray) -> FrameBounds:
    """Exact extreme eigenvalues of S = phi phi^H for the synthesis matrix phi."""
    eigs = _hermitian_eigs(phi @ phi.conj().T, "frame operator")
    a, b = max(float(eigs[0]), 0.0), float(eigs[-1])
    return FrameBounds(a, b, _classify(a, b), "exact_spectrum", eigs)


def frame_operator_spectrum(lam: PointSet, section_radius: float = 12.0,
                            margin: float = 3.0) -> FrameBounds:
    """Extreme eigenvalues of S = sum_lambda <., pi(lambda)g> pi(lambda)g for
    the Gaussian window g.

    S is compressed onto the Hermite modes resolved inside the truncation
    ball (radius minus margin); the result is an estimate labeled
    method=truncated_section, which also names the kept and resolved mode
    counts when the cap cuts them.

    C[n, z] = e^{-i pi x w} rho_n(|z|) e^{i n theta_z}, so the section
    S_mn = sum_z rho_m rho_n e^{i (m - n) theta_z}.  The restricted points, a
    disk of the lattice about the origin minus the hole about the origin, are
    invariant under z -> -z (theta + pi: entries with m - n odd cancel) and
    z -> conj(z) (theta -> -theta: S is real).  So S is two real symmetric
    blocks, the even and the odd modes, each summed over one point per orbit
    of those maps with the orbit's size as its weight.
    """
    if section_radius <= margin + 1.0:
        raise ValueError("section radius must exceed margin + 1")
    p = np.column_stack(lam._points_near(0.0, 0.0, section_radius, closed=True))
    if not p.size:
        raise ValueError("empty point set after restriction")
    n_modes = section_mode_count(section_radius, margin)
    p, sizes = _orbit_order(p)
    # every restricted point, the orbit representatives leading, though the
    # blocks read only those: the bench oracles count this call's points as
    # frames.section_dim.  The representatives alone would be about a
    # quarter of the entries
    coeff = reps.hermite_gabor_coefficients(n_modes, p)
    eigs = np.sort(np.concatenate([_hermitian_eigs(s, "section operator")
                                   for s in _orbit_blocks(coeff, sizes)]))
    a, b = max(float(eigs[0]), 0.0), float(eigs[-1])
    resolved = int(math.floor(math.pi * (section_radius - margin) ** 2))
    cut = f", modes={n_modes}/{resolved}" if n_modes < resolved else ""
    method = f"truncated_section(R={section_radius:g}, margin={margin:g}{cut})"
    if lam.covolume >= 1.0:
        # Lyubarskii; Seip-Wallsten: Gaussian Gabor systems on aZ x bZ are
        # frames iff ab < 1, and removing points keeps a non-frame a non-frame
        return FrameBounds(0.0, b, "bessel",
                           f"{method}; A=0: ab={lam.covolume:g} >= 1 admits no Gaussian frame",
                           eigs)
    return FrameBounds(a, b, _classify(a, b), method, eigs)


def gabor_gram_entry(mu: tuple, nu: tuple) -> complex:
    """<pi(nu)g, pi(mu)g> for the Gaussian window g via the covariance identity
    <pi(x',w')g, pi(x,w)g> = e^{2 pi i (w'-w) x'} V_g g(x-x', w-w')."""
    x, w = float(mu[0]), float(mu[1])
    xp, wp = float(nu[0]), float(nu[1])
    phase = np.exp(2j * math.pi * (wp - w) * xp)
    return complex(phase * reps.gaussian_ambiguity(x - xp, w - wp))


def _gram_bounds(gram: np.ndarray, method: str) -> FrameBounds:
    eigs = _hermitian_eigs(gram, "Gram matrix")
    a, b = max(float(eigs[0]), 0.0), float(eigs[-1])
    kind = "riesz" if _classify(a, b) == "frame" else "bessel"
    return FrameBounds(a, b, kind, method, eigs)


def finite_riesz_bounds(phi: np.ndarray) -> FrameBounds:
    """Exact extreme eigenvalues of the Gram matrix phi^H phi.  With more
    columns than rows the Gram is singular, so A = 0, and B is read from the
    smaller frame operator phi phi^H, whose nonzero spectrum the Gram shares."""
    if phi.shape[1] > phi.shape[0]:
        eigs = _hermitian_eigs(phi @ phi.conj().T, "frame operator")
        return FrameBounds(0.0, float(eigs[-1]), "bessel", "exact_spectrum", eigs)
    return _gram_bounds(phi.conj().T @ phi, "exact_spectrum")


def riesz_bounds(lam: PointSet, restriction_radius: float) -> FrameBounds:
    """Extreme eigenvalues of the Gram matrix G[i, j] = <pi(lam_j)g, pi(lam_i)g>
    for the Gaussian window g, with the lattice restricted to the closed disk
    of radius restriction_radius."""
    pts = lam.restrict(groups.ball(groups.euclidean_metric(dim=2), restriction_radius,
                                   closed=True))
    if not pts:
        raise ValueError("empty point set")
    m = len(pts)
    gram = np.empty((m, m), dtype=complex)
    for i in range(m):
        gram[i, i] = reps.GAUSSIAN_PROFILE.norm_sq  # V_g g(0) = ||g||^2
        for j in range(i + 1, m):
            val = gabor_gram_entry(pts[i], pts[j])
            gram[i, j] = val
            gram[j, i] = np.conj(val)
    return _gram_bounds(gram, f"exact_spectrum(restriction_radius={restriction_radius:g})")


# -- Relative separation ---------------------------------------------------------------


@dataclass(frozen=True)
class SeparationReport:
    """Rel_Q(Lambda) = sup_x #(Lambda intersect xQ).

    rel_sep is a maximum over every candidate centre of the disk arrangement
    (on a lattice) or every torus point (on the finite model), never over a
    sampled grid.
    """

    rel_sep: int
    q_radius: float
    q_kind: str
    witness: tuple
    n_candidates: int

    def to_json(self) -> dict:
        return asdict(self)


def _disk_candidates(pts: list, rho: float) -> list:
    """Centers, pair midpoints, and circle-circle intersections: the counting
    function's maximum over the plane is attained at one of these."""
    cands = list(pts)
    for i, p in enumerate(pts):
        for q in pts[i + 1:]:
            dx, dy = q[0] - p[0], q[1] - p[1]
            d = math.hypot(dx, dy)
            if d > 2.0 * rho * (1.0 + 1e-12) or d == 0.0:
                continue
            mx, my = (p[0] + q[0]) / 2.0, (p[1] + q[1]) / 2.0
            cands.append((mx, my))
            hsq = rho * rho - (d / 2.0) ** 2
            if hsq > 0:
                h = math.sqrt(hsq)
                ux, uy = -dy / d, dx / d
                cands.append((mx + h * ux, my + h * uy))
                cands.append((mx - h * ux, my - h * uy))
    return cands


def finite_relative_separation(lam: np.ndarray, q_radius: float) -> SeparationReport:
    """Exact Rel_Q of a finite_subset mask for the word ball Q of this radius:
    the count in every translate x + Q at once, a sum of the mask rolled by
    each offset of Q; the witness is the first maximum in row-major order."""
    n = len(lam)
    _check_same_torus(n, lam)
    counts = np.zeros((n, n), dtype=np.int64)
    for dk, dl in np.argwhere(reps.torus_ball(n, q_radius)):
        counts += np.roll(lam, (-dk, -dl), axis=(0, 1))
    best = int(np.argmax(counts))
    return SeparationReport(int(counts.flat[best]), q_radius, "word_ball",
                            divmod(best, n), n * n)


def relative_separation(lam: PointSet, q: groups.Ball) -> SeparationReport:
    """Exact Rel_Q of a lattice for a disk Q (removing the hole never lowers
    the sup, so the full-lattice value is reported)."""
    rho = q.radius
    base = PointSet(lam.a, lam.b)
    window = base.lattice_points_near(lam.a / 2.0, lam.b / 2.0,
                                      rho + math.hypot(lam.a, lam.b))
    cands = _disk_candidates(window, rho)
    cands = [c for c in cands if -lam.a <= c[0] <= 2 * lam.a
             and -lam.b <= c[1] <= 2 * lam.b] or window
    cx, cy = np.array(cands, dtype=float).T
    counts = base.lattice_count_near(cx, cy, rho)
    best = int(np.argmax(counts))  # the first maximum, as a strict > scan finds it
    return SeparationReport(int(counts[best]), rho, "euclidean_ball",
                            cands[best], len(cands))


# -- Cover constant of the Bessel separation lemma ----------------------------------------


@dataclass(frozen=True)
class CoverReport:
    """Greedy cover of Q by translates of U = {|V_g g| > ||g||^2 / 2}."""

    n_cover: int
    constant: float  # C(g, Q) = 4 n
    level: float
    u_radius: float | None
    centers: tuple
    certified: bool
    cell_size: float

    def to_json(self) -> dict:
        return {"n_cover": self.n_cover, "constant": self.constant,
                "level": self.level, "u_radius": self.u_radius,
                "certified": self.certified, "cell_size": self.cell_size}


def _greedy_cover(covers: np.ndarray) -> list:
    """Greedy set cover on a boolean candidate x target matrix: each step picks
    the first row that covers the most uncovered targets.  Returns the rows.

    The gains are counted once and then lowered by the targets each pick
    newly covers, so every target's column is read twice in all."""
    uncovered = np.ones(covers.shape[1], dtype=bool)
    gains = np.count_nonzero(covers, axis=1)
    chosen = []
    while uncovered.any():
        best = int(np.argmax(gains))
        if gains[best] == 0:
            raise ValueError("greedy cover stalled: no candidate covers what is left")
        chosen.append(best)
        newly = covers[best] & uncovered
        uncovered &= ~newly
        gains -= np.count_nonzero(covers[:, newly], axis=1)
    return chosen


def _grid_in_disk(spacing: float, n: int, radius: float) -> tuple:
    """x and y of the points (i spacing, j spacing), |i|, |j| <= n, within the
    closed disk of this radius, i-major and so in lexicographic order.  Squared
    distances decide; within a 1e-12 relative band of the radius math.hypot
    does, as the pointwise test would."""
    i, j = (c.ravel() for c in np.meshgrid(np.arange(-n, n + 1), np.arange(-n, n + 1),
                                           indexing="ij"))
    x, y = i * spacing, j * spacing
    sq, rsq = x * x + y * y, radius * radius
    inside = sq <= rsq
    near = np.abs(sq - rsq) <= 2e-12 * rsq
    inside[near] = [math.hypot(p, q) <= radius
                    for p, q in zip(x[near].tolist(), y[near].tolist())]
    return x[inside], y[inside]


def _greedy_cover_disk(rho: float, u: float) -> tuple:
    """Cover the closed disk of radius rho by open disks of radius u centered
    on a grid of spacing u/2; conservative cell certification."""
    cell = u / 8.0
    half_diag = cell * math.sqrt(2.0) / 2.0
    cx, cy = _grid_in_disk(cell, int(math.ceil((rho + cell) / cell)), rho + half_diag)
    gx, gy = _grid_in_disk(u / 2.0, int(math.ceil((rho + u) / (u / 2.0))), rho + u)
    reach = u - half_diag - 1e-9  # strict: cell square inside the open disk
    dx, dy = cx[None, :] - gx[:, None], cy[None, :] - gy[:, None]
    dx *= dx
    dy *= dy
    dx += dy
    # reach / cell = 8 - sqrt(2)/2 - 1e-9/cell lies far from every sqrt(m^2 + n^2),
    # so squared distances decide every pair as hypot would
    covers = dx <= reach * reach
    return [(float(gx[k]), float(gy[k])) for k in _greedy_cover(covers)], cell


def cover_matrix_estimate(rho: float) -> float:
    """Upper bound on the (candidate, cell) entries that the Gaussian window's
    cover of the disk of radius rho allocates.

    The N points of a square grid of spacing s within distance R of a point
    own disjoint cells inside the disk of radius R + s sqrt(2)/2, so
    N <= pi (R/s + sqrt(2)/2)^2; the cells lie within rho + u/8 and the
    candidates within rho + u.
    """
    u = reps.GAUSSIAN_PROFILE.level_radius
    bound = 1.0
    for radius, spacing in ((rho + u / 8.0, u / 8.0), (rho + u, u / 2.0)):
        side = radius / spacing + math.sqrt(0.5)
        bound *= math.pi * side * side
    return bound


def separation_pair_estimate(rho: float, a: float, b: float) -> float:
    """Point pairs that relative_separation on a Z x b Z scans for the disk
    of radius rho, at the budgeted size of its window."""
    w = disk_point_estimate(rho + math.hypot(a, b), a, b)
    return w * (w - 1.0) / 2.0


def finite_lemma_cover_constant(rep: RepModel, g: np.ndarray, q_radius: float) -> CoverReport:
    """Cover count n and constant C(g, Q) = 4n with U = {|V_g g| > ||g||^2/2}:
    an exhaustive greedy cover of the word ball Q of this radius over the
    torus.  Every element x is a candidate, and covers the target t when
    t - x lies in U."""
    gv = np.asarray(g, dtype=complex)
    table = np.abs(reps.coefficient_table(rep, gv, gv))
    level = float(np.linalg.norm(gv)) ** 2 / 2.0
    u_mask = table > level
    if not u_mask.any():
        raise ValueError("no level set found: |V_g g| never exceeds ||g||^2/2")
    n = rep.n
    tk, tl = np.nonzero(reps.torus_ball(n, q_radius))  # row-major order
    ck, cl = np.divmod(np.arange(n * n), n)
    covers = u_mask[(tk - ck[:, None]) % n, (tl - cl[:, None]) % n]
    chosen = [divmod(i, n) for i in _greedy_cover(covers)]
    return CoverReport(len(chosen), 4.0 * len(chosen), level, None, tuple(chosen), True, 0.0)


def lemma_cover_constant(q: groups.Ball) -> CoverReport:
    """Cover count n and constant C(g, Q) = 4n with U = {|V_g g| > ||g||^2/2}
    for the Gaussian window: a certified cover of the disk Q by metric
    translates of the level-set disk."""
    prof = reps.GAUSSIAN_PROFILE
    u = prof.level_radius
    centers, cell = _greedy_cover_disk(q.radius, u)
    return CoverReport(len(centers), 4.0 * len(centers), prof.norm_sq / 2.0, u,
                       tuple(centers), True, cell)


def _bessel_report(sep: SeparationReport, cover: CoverReport, bessel_bound: float,
                   norm_sq: float) -> dict:
    """The Bessel-separation lemma Rel_Q(Lambda) <= 4 n B ||g||^{-2}, with n
    the cover's count, B the Bessel bound and ||g||^2 = norm_sq."""
    bound = cover.constant * bessel_bound / norm_sq
    return {"rel_sep": sep.rel_sep, "n_cover": cover.n_cover,
            "cover_constant": cover.constant, "bessel_bound": bessel_bound,
            "bound": bound, "passed": sep.rel_sep <= bound + 1e-9,
            "separation": sep.to_json(), "cover": cover.to_json()}


def finite_bessel_separation_bound(rep: RepModel, g: np.ndarray, lam: np.ndarray,
                                   q_radius: float, bessel_bound: float) -> dict:
    """Check Rel_Q(Lambda) <= 4 n B ||g||^{-2} for a Bessel bound B of g over
    lam."""
    _check_same_torus(rep.n, lam)
    gv = np.asarray(g, dtype=complex)
    return _bessel_report(finite_relative_separation(lam, q_radius),
                          finite_lemma_cover_constant(rep, gv, q_radius),
                          bessel_bound, float(np.linalg.norm(gv)) ** 2)


def bessel_separation_bound(lam: PointSet, q: groups.Ball, bessel_bound: float) -> dict:
    """Check Rel_Q(Lambda) <= 4 n B ||g||^{-2} for the Gaussian window g and a
    Bessel bound B of it over lam."""
    return _bessel_report(relative_separation(lam, q), lemma_cover_constant(q),
                          bessel_bound, reps.GAUSSIAN_PROFILE.norm_sq)


def _amalgam_report(lhs: float, rhs: float, sep: SeparationReport, mu_q: float,
                    k_radius: float) -> dict:
    return {"lhs": lhs, "rhs": rhs, "margin": rhs - lhs, "rel_sep": sep.rel_sep,
            "mu_q": mu_q, "k_radius": k_radius, "passed": lhs <= rhs * (1.0 + 1e-9)}


def finite_amalgam_check(rep: RepModel, g: np.ndarray, lam: np.ndarray, q_radius: float,
                         k_radius: float) -> dict:
    """The amalgam bound sum_{lam in K} |F(lam)|^2 <= (Rel_Q / mu(Q)) *
    sum_{KQ} (M_Q F)^2 for F = V_g g, with Q and K the closed word balls of
    radii q_radius and k_radius.  One pass over the offsets z of Q rolls
    both M_Q F, the running max of F(x + z), and KQ, the union of K + z."""
    _check_same_torus(rep.n, lam)
    sep = finite_relative_separation(lam, q_radius)
    gv = np.asarray(g, dtype=complex)
    table = np.abs(reps.coefficient_table(rep, gv, gv))
    k_mask = reps.torus_ball(rep.n, k_radius)
    lhs = float(sum(table[lam & k_mask] ** 2))
    q_offsets = np.argwhere(reps.torus_ball(rep.n, q_radius))
    m = np.zeros_like(table)
    kq = np.zeros_like(k_mask)
    for dk, dl in q_offsets:
        m = np.maximum(m, np.roll(table, (-dk, -dl), axis=(0, 1)))
        kq |= np.roll(k_mask, (dk, dl), axis=(0, 1))
    mu_q = float(len(q_offsets))
    # both sides add numpy scalars one by one in row-major order, so they are
    # equal when they sum the same terms (Python floats would take sum()'s
    # compensated path from 3.12 on)
    rhs = sep.rel_sep / mu_q * float(sum(m[kq] ** 2))
    return _amalgam_report(lhs, rhs, sep, mu_q, k_radius)


def amalgam_check(lam: PointSet, q: groups.Ball, k_radius: float) -> dict:
    """The amalgam bound sum_{lam in K} |F(lam)|^2 <= (Rel_Q / mu(Q)) *
    integral_{KQ} (M_Q F)^2 for F = V_g g of the Gaussian window, with K the
    closed disk of radius k_radius."""
    sep = relative_separation(lam, q)
    prof = reps.GAUSSIAN_PROFILE
    pts = lam.restrict(groups.ball(groups.euclidean_metric(dim=2), k_radius, closed=True))
    lhs = float(sum(prof.profile(math.hypot(*p)) ** 2 for p in pts))
    rho = q.radius
    integral = prof.mass_outside(rho, 0.0) - prof.mass_outside(rho, k_radius + rho)
    mu_q = math.pi * rho * rho
    return _amalgam_report(lhs, sep.rel_sep / mu_q * integral, sep, mu_q, k_radius)
