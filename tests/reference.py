"""Reference implementations that the tests compare the package against.

None of these runs in an experiment: each is an independent route to a
quantity the package computes another way, or a lemma no report reads.
"""

import itertools
import math

import numpy as np

from coherentlab import frames, groups, reps


def mc_error_integral(q: groups.Ball, k: groups.Ball, kind: str = "I",
                      n_samples: int = 10 ** 6, seed: int = 0) -> tuple:
    """Monte Carlo estimate (value, stderr) of I_n or J_n.

    Independent of the lens-area reduction: draws the difference variable from
    the radial profile density and a uniform center, then averages the region
    indicator.

    The radius of the difference variable is drawn by inverting the
    closed-form survival function mass_outside(rho, u) / total on a linear
    grid over [0, rho + 12]; beyond it the Gaussian survival is about
    e^(-144 pi).
    """
    prof = reps.GAUSSIAN_PROFILE
    rho, r = q.radius, k.radius
    total_mass = prof.mass_outside(rho, 0.0)
    grid = np.linspace(0.0, rho + 12.0, 20_001)
    cdf = 1.0 - np.array([prof.mass_outside(rho, float(u)) for u in grid]) / total_mass
    rng = np.random.default_rng(seed)
    vals = np.empty(n_samples)
    done = 0
    area = math.pi * r * r if kind == "I" else math.pi * (r + rho) ** 2
    while done < n_samples:
        m = min(500_000, n_samples - done)
        u = np.interp(rng.random(m), cdf, grid)
        phi = rng.random(m) * 2.0 * math.pi
        wx, wy = u * np.cos(phi), u * np.sin(phi)
        rad = (r if kind == "I" else r + rho) * np.sqrt(rng.random(m))
        ang = rng.random(m) * 2.0 * math.pi
        yx, yy = rad * np.cos(ang), rad * np.sin(ang)
        shifted = np.hypot(yx + wx, yy + wy)
        ind = shifted > (r - rho) if kind == "I" else shifted > r
        vals[done: done + m] = ind.astype(float)
        done += m
    mean = float(np.mean(vals))
    std = float(np.std(vals, ddof=1)) / math.sqrt(n_samples)
    return area * total_mass * mean, area * total_mass * std


def lens_area_scalar(r1: float, r2: float, d: float, acos=math.acos) -> float:
    """Two-disk intersection area, branch by branch, one distance at a time.

    The angles come from acos: by default libm's math.acos, one call per
    angle, the oracle numpy's arccos is held to.  Passing np.arccos gives the
    angles quadrature.lens_area takes, to the bit.
    """
    if r1 <= 0.0 or r2 <= 0.0 or d >= r1 + r2:
        return 0.0
    if d <= abs(r1 - r2):
        rm = min(r1, r2)
        return math.pi * rm * rm
    a1 = float(acos(max(-1.0, min(1.0, (d * d + r1 * r1 - r2 * r2) / (2.0 * d * r1)))))
    a2 = float(acos(max(-1.0, min(1.0, (d * d + r2 * r2 - r1 * r1) / (2.0 * d * r2)))))
    sq = (-d + r1 + r2) * (d + r1 - r2) * (d - r1 + r2) * (d + r1 + r2)
    return r1 * r1 * a1 + r2 * r2 * a2 - 0.5 * math.sqrt(max(sq, 0.0))


def dimension_lemma_check(rep: reps.RepModel, g, basis) -> dict:
    """Sum over the group of ||P_V pi(x) g||^2 against N ||g||^2 dim V on the
    finite model."""
    gv = np.asarray(g, dtype=complex)
    vecs = [np.asarray(v, dtype=complex) for v in basis]
    dim = len(vecs)
    if dim:
        vmat = np.column_stack(vecs)
        dev = float(np.max(np.abs(vmat.conj().T @ vmat - np.eye(dim))))
        if dev > 1e-10:
            raise ValueError(f"basis is not orthonormal (deviation {dev:.3g})")
    lhs = sum(float(np.sum(np.abs(reps.coefficient_table(rep, v, gv)) ** 2))
              for v in vecs)
    rhs = rep.n * float(np.linalg.norm(gv)) ** 2 * dim
    return {"lhs": lhs, "rhs": rhs, "dim": dim, "n": rep.n,
            "deviation": abs(lhs - rhs),
            "passed": abs(lhs - rhs) <= 1e-8 * max(1.0, rhs)}


def hermite_functions(n_max: int, t: np.ndarray) -> np.ndarray:
    """Rows 0..n_max of the L^2(R)-orthonormal Hermite family whose ground
    state is the unit Gaussian 2^(1/4) exp(-pi t^2)."""
    t = np.asarray(t, dtype=float)
    x = t * math.sqrt(2.0 * math.pi)
    out = np.zeros((n_max + 1, len(t)))
    out[0] = math.pi ** -0.25 * np.exp(-x * x / 2.0)
    if n_max >= 1:
        out[1] = math.sqrt(2.0) * x * out[0]
    for n in range(1, n_max):
        out[n + 1] = (math.sqrt(2.0 / (n + 1)) * x * out[n]
                      - math.sqrt(n / (n + 1.0)) * out[n - 1])
    return (2.0 * math.pi) ** 0.25 * out


# -- The group law and the metrics, element by element ------------------------
#
# The package builds whole balls from closed forms and never measures a single
# element; these are the pointwise definitions that its balls are checked
# against.


def multiply(group: groups.GroupModel, a: tuple, b: tuple) -> tuple:
    if group.kind == groups.DISCRETE_HEISENBERG:
        # normal form (x, y, z), (x,y,z)(x',y',z') = (x+x', y+y', z+z'+x*y')
        return (a[0] + b[0], a[1] + b[1], a[2] + b[2] + a[0] * b[1])
    return tuple(x + y for x, y in zip(a, b))


def inverse(group: groups.GroupModel, a: tuple) -> tuple:
    if group.kind == groups.DISCRETE_HEISENBERG:
        return (-a[0], -a[1], -a[2] + a[0] * a[1])
    return tuple(-x for x in a)


def cygan_gauge(el: tuple) -> float:
    # polarized -> symmetric coordinates, then the Cygan gauge
    x, y, z = el
    t = z - x * y / 2.0
    return ((x * x + y * y) ** 2 + 16.0 * t * t) ** 0.25


def h3_length(x: int, y: int, z: int) -> int:
    """Word length of (x, y, z) in H3 for the generators a^(+-1), b^(+-1):
    brought to x, y >= 0 and z >= 0, x + y when z <= xy; else, with
    M = max(x, y) and N = min(x, y), M - N + 2 ceil(z / M) when z <= M^2, and
    2 ceil(2 sqrt z) - x - y past it (Blachere, Colloq. Math. 95, 2003)."""
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


def distance(metric: groups.PeriodicMetric, a: tuple, b: tuple) -> float:
    """d(a, b) = |a^-1 b| for a word or gauge metric."""
    rel = multiply(metric.group, inverse(metric.group, a), b)
    if metric.kind == groups.HOMOGENEOUS_HEISENBERG:
        return cygan_gauge(rel)
    if metric.group.kind == groups.INTEGER_LATTICE:
        return float(sum(abs(x) for x in rel))
    return float(h3_length(*rel))


def length(metric: groups.PeriodicMetric, el: tuple) -> float:
    return distance(metric, (0,) * metric.group.dim, el)


# -- The finite model's checks on tuples --------------------------------------
#
# Each takes what its frames.finite_* counterpart takes and computes the same
# quantity element by element on Z_N x Z_N: a scan of the translates of Q, the
# cover's candidate x target matrix as nested lists, and KQ as a set.  The
# finite_subset mask Lambda is read once, as its set of (k, l) tuples.


def _torus_add(n: int, a: tuple, b: tuple) -> tuple:
    return ((a[0] + b[0]) % n, (a[1] + b[1]) % n)


def _mask_points(lam: np.ndarray) -> set:
    return {(k, l) for k in range(len(lam)) for l in range(len(lam)) if lam[k, l]}


def _torus_ball_points(n: int, radius: float) -> list:
    """The closed word ball as tuples, in row-major order."""
    return [p for p in itertools.product(range(n), repeat=2)
            if sum(min(x, n - x) for x in p) <= radius]


def finite_relative_separation(lam: np.ndarray, q_radius: float) -> tuple:
    """(rel_sep, witness, n_candidates): the first translate x + Q, in
    row-major order, that holds the most points of Lambda."""
    n = len(lam)
    q_points = _torus_ball_points(n, q_radius)
    pset = _mask_points(lam)
    best, witness = 0, (0, 0)
    for x in itertools.product(range(n), repeat=2):
        c = sum(1 for z in q_points if _torus_add(n, x, z) in pset)
        if c > best:
            best, witness = c, x
    return best, witness, n * n


def finite_cover_centres(rep: reps.RepModel, g, q_radius: float) -> tuple:
    """The greedy cover's centres, from the candidate x target matrix built
    as a list of rows: x covers t when t - x lies in the level set U."""
    n = rep.n
    gv = np.asarray(g, dtype=complex)
    table = np.abs(reps.coefficient_table(rep, gv, gv))
    level = float(np.linalg.norm(gv)) ** 2 / 2.0
    u_set = {(k, l) for k in range(n) for l in range(n) if table[k, l] > level}
    cand = list(itertools.product(range(n), repeat=2))
    covers = np.array([[_torus_add(n, (-x[0], -x[1]), t) in u_set
                        for t in _torus_ball_points(n, q_radius)] for x in cand], dtype=bool)
    return tuple(cand[i] for i in frames._greedy_cover(covers))


def finite_amalgam_sides(rep: reps.RepModel, g, lam: np.ndarray, q_radius: float,
                         k_radius: float) -> tuple:
    """(lhs, rhs) of the finite amalgam check, with KQ as a set of tuples and
    M_Q F as the max of F over each x + Q."""
    n = rep.n
    gv = np.asarray(g, dtype=complex)
    table = np.abs(reps.coefficient_table(rep, gv, gv))
    q_points = _torus_ball_points(n, q_radius)
    k_points = _torus_ball_points(n, k_radius)
    k_set = set(k_points)
    lhs = float(sum(table[p] ** 2 for p in sorted(_mask_points(lam)) if p in k_set))
    kq = {_torus_add(n, y, z) for y in k_points for z in q_points}
    rhs = sum(max(table[_torus_add(n, x, z)] for z in q_points) ** 2 for x in kq)
    rel_sep = finite_relative_separation(lam, q_radius)[0]
    return lhs, rel_sep / len(q_points) * float(rhs)
