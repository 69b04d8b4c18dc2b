"""Independent integer oracles for the benchmark's correctness check.

Lattice points in a disk are counted column by column in closed form: in
column k the points are the l with |l*b - cy| <= sqrt(r^2 - (k*a - cx)^2).
Word balls of H3 are grown by a BFS written here from the group law.  Each
check takes the generated parameters, the parsed report and the counters a
traced run observed, and returns a list of failure messages.
"""

from __future__ import annotations

import csv
import math

import numpy as np

# closed-disk slack on squared distances, the same as the program's: it
# admits lattice points that sit exactly on the circle
TIE = 1e-12


def lattice_count(a: float, b: float, cx: float, cy: float, r: float,
                  closed: bool = True) -> int:
    """#{(k a, l b) : |(k a, l b) - (cx, cy)| <= r}, or < r when not closed."""
    k = np.arange(math.floor((cx - r) / a) - 1, math.ceil((cx + r) / a) + 2)
    dx = k * a - cx
    h_sq = (r * r * (1.0 + TIE) + TIE if closed else r * r) - dx * dx
    h = np.sqrt(np.maximum(h_sq, 0.0))
    if closed:
        lo, hi = np.ceil((cy - h) / b), np.floor((cy + h) / b)
    else:
        lo, hi = np.floor((cy - h) / b) + 1, np.ceil((cy + h) / b) - 1
    per_column = np.where(h_sq >= 0 if closed else h_sq > 0, hi - lo + 1, 0)
    return int(np.sum(np.maximum(per_column, 0)))


def _rows(rows_csv: str) -> list:
    return list(csv.DictReader(ln for ln in rows_csv.splitlines()
                               if not ln.startswith("#")))


def _expect(failures: list, what: str, got, want) -> None:
    if got != want:
        failures.append(f"{what}: program {got!r}, oracle {want!r}")


def density_oracle(p: dict, report: dict, rows_csv: str, counts: dict) -> list:
    """inf/sup counts over the centre grid and the section size."""
    a, b = p["lattice_a"], p["lattice_b"]
    spacing = min(a, b) / 8.0  # the program's default centre grid
    centres = [(float(x), float(y)) for x in np.arange(0.0, a - 1e-12, spacing)
               for y in np.arange(0.0, b - 1e-12, spacing)]
    failures = []
    rows = _rows(rows_csv)
    _expect(failures, "rows", len(rows), len(p["radii"]))
    for row, r in zip(rows, p["radii"]):
        counts_r = [lattice_count(a, b, cx, cy, r) for cx, cy in centres]
        _expect(failures, f"inf_count(r={r:g})", int(row["inf_count"]), min(counts_r))
        _expect(failures, f"sup_count(r={r:g})", int(row["sup_count"]), max(counts_r))
    _expect(failures, "section points", counts["frames.section_dim"],
            [lattice_count(a, b, 0.0, 0.0, p["section_radius"])])
    return failures


def hole_oracle(p: dict, report: dict, rows_csv: str, counts: dict) -> list:
    """Section size per hole: the closed section disk minus the open hole."""
    a, b, big = p["lattice_a"], p["lattice_b"], p["section_radius"]
    full = lattice_count(a, b, 0.0, 0.0, big)
    want = [full - (lattice_count(a, b, 0.0, 0.0, r, closed=False) if r > 0 else 0)
            for r in p["hole_radii"]]
    failures = []
    _expect(failures, "section points per hole", counts["frames.section_dim"], want)
    return failures


def frame_oracle(p: dict, report: dict, rows_csv: str, counts: dict) -> list:
    """Section size, Gram size, and one Gram entry per pair of points."""
    a, b = p["lattice_a"], p["lattice_b"]
    m = lattice_count(a, b, 0.0, 0.0, p["restriction_radius"])
    failures = []
    _expect(failures, "section points", counts["frames.section_dim"],
            [lattice_count(a, b, 0.0, 0.0, p["section_radius"])])
    _expect(failures, "Gram dimension", counts["frames.gram_dim"], [m])
    _expect(failures, "Gram entries", counts["frames.gram_entries"], m * (m - 1) // 2)
    return failures


def h3_ball_volumes(radii) -> list:
    """Closed word-ball sizes in H3(Z) with generators a^(+-1), b^(+-1), by BFS.

    Normal form (x, y, z) with (x, y, z)(x', y', z') = (x+x', y+y', z+z'+x y').
    """
    top = max(radii)
    seen = {(0, 0, 0)}
    frontier = [(0, 0, 0)]
    sizes = [1]
    for _ in range(top):
        nxt = []
        for x, y, z in frontier:
            for q in ((x + 1, y, z), (x - 1, y, z), (x, y + 1, z + x), (x, y - 1, z - x)):
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
        sizes.append(sizes[-1] + len(nxt))
    return [sizes[r] for r in radii]


def geometry_oracle(p: dict, report: dict, rows_csv: str, counts: dict) -> list:
    """growth_fit volumes against a from-scratch BFS."""
    fit = next(r for r in report["records"] if r["name"] == "growth_fit")
    failures = []
    _expect(failures, "growth volumes", [int(v) for v in fit["volumes"]],
            h3_ball_volumes(p["growth_radii"]))
    return failures


ORACLES = {"density": density_oracle, "hole": hole_oracle, "frame": frame_oracle,
           "geometry": geometry_oracle}
