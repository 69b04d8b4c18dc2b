"""Command-line orchestration: config parsing, experiment dispatch, reports.

Five subcommands (geometry, rep-check, frame, density, hole), each driven by
one INI section of the same name.  Reports are emitted as report.json plus a
rows CSV; reruns with identical config/seed/version are byte-identical, so
wall-clock timings are printed to the console only.
"""

from __future__ import annotations

import argparse
import configparser
import math
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import __version__, density, frames, groups, reporting, reps

EXPERIMENTS = ("geometry", "rep-check", "frame", "density", "hole")


class ConfigError(ValueError):
    """Invalid experiment configuration; the message names the offending key."""


# -- Config handling -----------------------------------------------------------------

# Numeric domains: (what the message says, test), applied to every value of a
# key.  A numeric key without one takes any finite number.
_POSITIVE = ("> 0", lambda v: v > 0)
_NONNEG = (">= 0", lambda v: v >= 0)
_AT_LEAST_1 = (">= 1", lambda v: v >= 1)
_EXHAUSTIVE_N = ("in [2, 64]", lambda v: 2 <= v <= 64)  # the checks enumerate Z_n^2
_FRACTION = ("in (0, 1]", lambda v: 0 < v <= 1)

# geometry group -> the metrics it takes; the first is the default
_GROUP_METRICS = {"integer_lattice": ("word",),
                  "discrete_heisenberg": ("word", "heisenberg_gauge"),
                  "euclidean": ("euclidean",)}

# key -> (type, default, choices of a str key or domain of a numeric one), and
# for a key that only some runs read, the (selector key, value) it is read under
_SCHEMAS = {
    "geometry": {
        "group": ("str", "integer_lattice", ("integer_lattice",
                                             "discrete_heisenberg", "euclidean")),
        "metric": ("str", "", ("", "word", "euclidean", "heisenberg_gauge")),
        "growth_radii": ("floats", "4,5,6,7,8,9,10,11,12", _AT_LEAST_1),
        "folner_r0": ("float", "1", _POSITIVE),
        "folner_count": ("int", "3", _AT_LEAST_1),
        "folner_step": ("float", "10", _POSITIVE),
        "folner_k_radius": ("float", "1", _NONNEG),
        "annular_radii": ("floats", "2,4,8,16", _POSITIVE),
        "annular_fracs": ("floats", "0.25,0.5", _FRACTION),
        "annular_c_max": ("float", "8", _POSITIVE),
    },
    "rep-check": {
        "n": ("int", "8", _EXHAUSTIVE_N),
        "trials": ("int", "20", _AT_LEAST_1),
        "tol": ("float", "1e-10", _POSITIVE),
        "seed": ("int", "0", _NONNEG),
    },
    "frame": {
        "model": ("str", "gaussian", ("gaussian", "finite")),
        "n": ("int", "8", _EXHAUSTIVE_N, ("model", "finite")),
        "subset": ("str", "full", ("full", "even_shifts", "single_row"), ("model", "finite")),
        "lattice_a": ("float", "0.5", _POSITIVE, ("model", "gaussian")),
        "lattice_b": ("float", "0.5", _POSITIVE, ("model", "gaussian")),
        "section_radius": ("float", "12", _POSITIVE, ("model", "gaussian")),
        "margin": ("float", "3", _NONNEG, ("model", "gaussian")),
        "restriction_radius": ("float", "6", _POSITIVE, ("model", "gaussian")),
        "q_radius": ("float", "0.6", _POSITIVE),
        "k_radius": ("float", "4", _NONNEG),
        "seed": ("int", "0", _NONNEG, ("model", "finite")),
    },
    "density": {
        "side": ("str", "frame", ("frame", "riesz")),
        "lattice_a": ("float", "0.5", _POSITIVE),
        "lattice_b": ("float", "0.5", _POSITIVE),
        "radii": ("floats", "6,10,14", _POSITIVE),
        "q_radius": ("float", "1", _POSITIVE),
        "section_radius": ("float", "12", _POSITIVE, ("side", "frame")),
        "margin": ("float", "3", _NONNEG, ("side", "frame")),
        "restriction_radius": ("float", "8", _POSITIVE, ("side", "riesz")),
        "fit_exponent": ("bool", "false", None),
        "alpha": ("float", "2", _POSITIVE, ("fit_exponent", True)),
    },
    "hole": {
        "lattice_a": ("float", "0.5", _POSITIVE),
        "lattice_b": ("float", "0.5", _POSITIVE),
        "hole_radii": ("floats", "0,1,2,4", _NONNEG),
        "section_radius": ("float", "12", _POSITIVE),
        "margin": ("float", "3", _NONNEG),
        "r0": ("float", "1.25", _AT_LEAST_1),
        "alpha": ("float", "2", _POSITIVE),
    },
}


def _finite(raw: str) -> float:
    val = float(raw)
    if not math.isfinite(val):
        raise ValueError(raw)
    return val


def _parse_value(key: str, raw: str, typ: str):
    try:
        if typ == "int":
            return int(raw)
        if typ == "float":
            return _finite(raw)
        if typ == "bool":
            if raw.lower() in ("true", "1", "yes"):
                return True
            if raw.lower() in ("false", "0", "no"):
                return False
            raise ValueError(raw)
        if typ == "floats":
            return tuple(_finite(v) for v in raw.replace(" ", "").split(",") if v)
        return raw
    except ValueError as exc:
        raise ConfigError(f"invalid value for '{key}': {raw!r}") from exc


def _syntax_error(exc: configparser.Error) -> str:
    """One line naming the key or the line an INI syntax error is about."""
    if isinstance(exc, configparser.DuplicateOptionError):
        return f"key '{exc.option}' repeats in [{exc.section}] (line {exc.lineno})"
    if isinstance(exc, configparser.DuplicateSectionError):
        return f"section [{exc.section}] repeats (line {exc.lineno})"
    if isinstance(exc, configparser.MissingSectionHeaderError):
        return f"line {exc.lineno} {exc.line.strip()!r} comes before any [section] header"
    if isinstance(exc, configparser.ParsingError):
        return "; ".join(f"line {n} is not 'key = value': {line}" for n, line in exc.errors)
    return " ".join(str(exc).split())


def load_config(path: str, experiment: str) -> dict:
    """Parse and validate the INI section for the experiment kind."""
    schema = _SCHEMAS[experiment]
    parser = configparser.ConfigParser()
    try:
        found = parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config file {path!r}: "
                          f"{_syntax_error(exc)}") from exc
    if not found:
        raise ConfigError(f"cannot read config file {path!r}")
    if not parser.has_section(experiment):
        raise ConfigError(f"config is missing the [{experiment}] section")
    cfg = {}  # each selector comes before the keys it governs
    for key, (typ, default, allowed, *read_when) in schema.items():
        unread = next((sel for sel, value in read_when if cfg[sel] != value), None)
        if unread is not None:  # its selector says that this run does not read key
            if parser.has_option(experiment, key):
                raise ConfigError(f"key '{key}' is not read when {unread} = {cfg[unread]}")
            continue
        try:
            raw = parser.get(experiment, key, fallback=default)
        except configparser.Error as exc:  # a stray '%' fails interpolation
            raise ConfigError(f"invalid value for '{key}': {exc}") from exc
        val = _parse_value(key, raw, typ)
        if typ == "str":
            if val not in allowed:
                raise ConfigError(f"invalid value for '{key}': {val!r} (choose from "
                                  f"{', '.join(c or '<auto>' for c in allowed)})")
        elif typ == "floats" and not val:
            raise ConfigError(f"invalid value for '{key}': {raw!r} (must be a "
                              "nonempty list)")
        elif allowed is not None:
            text, ok = allowed
            if not all(ok(v) for v in (val if typ == "floats" else (val,))):
                raise ConfigError(f"invalid value for '{key}': {raw!r} (must be {text})")
        cfg[key] = val
    for key in parser.options(experiment):
        if key not in schema:
            raise ConfigError(f"unknown key '{key}' in [{experiment}]")
    _validate(experiment, cfg)
    return cfg


def _size(fn) -> float:
    """fn() as a float, or inf where the float arithmetic overflows; budget
    estimates for huge radii compare as inf instead of raising."""
    try:
        return float(fn())
    except OverflowError:
        return math.inf


def _disk_measure(radius: float) -> float:
    """pi r^2 as the runs take it: 0 once r^2 underflows, inf past overflow."""
    return _size(lambda: groups.ball_measure(groups.euclidean_metric(dim=2), radius))


def _validate(experiment: str, cfg: dict) -> None:
    """Rules that tie keys together; single-key domains live in _SCHEMAS."""
    try:
        budget = groups.ball_budget()
    except ValueError as exc:  # a malformed budget in the environment
        raise ConfigError(str(exc)) from exc
    if experiment == "geometry":
        metrics = _GROUP_METRICS[cfg["group"]]
        if cfg["metric"] not in ("", *metrics):
            raise ConfigError(f"metric {cfg['metric']!r} does not belong to group "
                              f"{cfg['group']!r} (choose from {', '.join(metrics)})")
        radii = cfg["growth_radii"]
        if len(radii) < 4 or any(r1 <= r0 for r0, r1 in zip(radii, radii[1:])):
            raise ConfigError("growth_radii must hold at least 4 strictly "
                              "increasing values")
        if cfg["folner_step"] <= cfg["folner_r0"]:
            raise ConfigError(
                f"folner_step must exceed folner_r0 (got step={cfg['folner_step']:g}, "
                f"r0={cfg['folner_r0']:g})")
        if cfg["group"] != "euclidean" and cfg["folner_r0"] < 1.0:
            raise ConfigError("folner_r0 must be at least 1 on a discrete group")
        if min(cfg["annular_radii"]) * min(cfg["annular_fracs"]) == 0.0:
            raise ConfigError("the smallest annular_radii entry times the smallest "
                              "annular_fracs entry rounds to an annulus of width 0")
    elif experiment == "density":
        radii = cfg["radii"]
        if any(r1 <= r0 for r0, r1 in zip(radii, radii[1:])):
            raise ConfigError("radii must be strictly increasing")
        if _disk_measure(radii[0]) == 0.0:
            raise ConfigError(f"{_key_value(cfg, 'radii')} gives K_0 zero measure")
        if cfg["fit_exponent"]:
            if len(radii) < 4 or radii[-1] < 4.0 * radii[0]:
                raise ConfigError("fit_exponent needs radii: >= 4 values "
                                  "spanning a factor of 4")
    elif experiment == "hole":
        if cfg["lattice_a"] * cfg["lattice_b"] >= 1.0:
            raise ConfigError("lattice_a * lattice_b must be < 1 (frame regime)")
        if cfg["section_radius"] < 2.0 * max(cfg["hole_radii"]):
            raise ConfigError("section_radius too small relative to the "
                              "largest hole_radii entry")
        if math.isinf(_size(lambda: density.TAIL_FIT_RADIUS ** cfg["alpha"])):
            raise ConfigError(f"{_key_value(cfg, 'alpha')} overflows the tail fit's r^alpha")
    _check_sizes(cfg, budget)


def _check_sizes(cfg: dict, budget: int) -> None:
    """Reject a config whose largest enumeration or matrix would exceed the
    budget, naming the keys that set its size, before anything is built;
    cfg holds only the keys its run reads, so each size is budgeted by key."""
    a, b = cfg.get("lattice_a"), cfg.get("lattice_b")
    sizes = []  # (key, what is counted, its size as a thunk)
    if "section_radius" in cfg:
        radius, margin = cfg["section_radius"], cfg["margin"]
        if radius <= margin + 1.0:
            raise ConfigError("section_radius must exceed margin + 1")
        sizes.append(("section_radius", "Hermite section entries",
                      lambda: (frames.section_mode_count(radius, margin) + 1)
                      * frames.disk_point_estimate(radius, a, b)))
    if "restriction_radius" in cfg:
        sizes.append(("restriction_radius", "Gram matrix entries",
                      lambda: frames.disk_point_estimate(cfg["restriction_radius"], a, b) ** 2))
    if "lattice_a" in cfg:
        # the cover of Q by level-set disks grows like the fourth power of its radius
        q_key = "r0" if "r0" in cfg else "q_radius"
        if _disk_measure(cfg[q_key]) == 0.0:
            raise ConfigError(f"{q_key} = {cfg[q_key]:g} gives Q zero measure")
        sizes.append((q_key, "cover matrix entries",
                      lambda: frames.cover_matrix_estimate(cfg[q_key])))
    if "lattice_a" in cfg and "k_radius" in cfg:
        sizes.append(("q_radius", "point pairs in the separation search",
                      lambda: frames.separation_pair_estimate(cfg["q_radius"], a, b)))
        sizes.append(("k_radius", "amalgam points",
                      lambda: frames.disk_point_estimate(cfg["k_radius"], a, b)))
    if "radii" in cfg:
        # the counting constant C = (B / A) C(g, Q) / mu(Q) is at least 4 / mu(Q)
        if math.isinf(4.0 / _disk_measure(cfg["q_radius"])):
            raise ConfigError(f"q_radius = {cfg['q_radius']:g} overflows the counting "
                              "constant C >= 4 / mu(Q)")
        sizes.append(("radii", "points in the largest ball",
                      lambda: (2.0 * cfg["radii"][-1] / min(a, b)) ** 2))
        # the centre grid of spacing min(a, b) / 8 over one cell: the lattice
        # spacings alone set its size
        spacing = min(a, b) / 8.0
        sizes.append((None, "centres",
                      lambda: math.ceil(a / spacing) * math.ceil(b / spacing)))
    if "trials" in cfg:
        sizes.append(("trials", "coefficient entries",
                      lambda: cfg["trials"] * cfg["n"] ** 2))
    lattice = f"lattice_a = {a:g}, lattice_b = {b:g}" if a is not None else ""
    for key, what, size in sizes:
        n = _size(size)
        if n > budget:
            named = (lattice if key is None else _key_value(cfg, key)
                     + (f" on {lattice}" if lattice else ""))
            raise _over_budget(named, n, what, budget)


def _over_budget(named: str, n: float, what: str, budget: int) -> ConfigError:
    """The refusal of a size over the budget; named says which keys set it."""
    return ConfigError(f"{named} gives ~{n:.3g} {what}, over the "
                       f"enumeration budget ({groups.BUDGET_ENV_VAR}={budget})")


def _check_geometry_sizes(cfg: dict, metric: groups.PeriodicMetric) -> None:
    """Reject a geometry run whose balls would exceed the budget, naming the
    key that sets each one's size, before its first stage.  Every discrete
    ball is sized exactly on the run's own metric, the largest first, so
    that one pass over its columns sizes every H3 word ball the run reads.
    Euclidean balls are closed forms that enumerate nothing, but their
    measures must stay finite, and the exhaustion builds one ball and one row
    per Folner set."""
    budget = groups.ball_budget()
    first = max(cfg["folner_r0"] + 1.0, cfg["folner_step"])  # K_1 of the exhaustion
    last = _size(lambda: first + (cfg["folner_count"] - 1) * cfg["folner_step"])
    k_radius = cfg["folner_k_radius"]
    balls = [("growth_radii", "largest growth", cfg["growth_radii"][-1]),
             ("annular_radii", "largest annular", max(cfg["annular_radii"])),
             ("folner_step", "first Folner", first),
             ("folner_count", "largest Folner", last),
             ("folner_k_radius", "Folner K", k_radius)]
    if metric.kind == groups.EUCLIDEAN_NORM:
        if cfg["folner_count"] > budget:
            raise _over_budget(_key_value(cfg, "folner_count"),
                               _size(lambda: cfg["folner_count"]), "Folner sets", budget)
        # the Folner ratio measures the ball of radius r_n + r_K
        for key, which, radius in balls + [("folner_k_radius", "Folner product",
                                            last + k_radius)]:
            if math.isinf(_size(lambda: groups.ball_measure(metric, radius))):
                raise ConfigError(f"{_key_value(cfg, key)} overflows the closed-form "
                                  f"measure of the {which} ball")
        return
    try:
        groups.ball_measure(metric, max(r for *_, r in balls if math.isfinite(r)))
    except groups.BudgetExceededError:
        pass  # the checks below name the key of the first ball over the budget
    sizes = {}
    for key, which, radius in balls:
        if math.isinf(radius):  # a Folner radius whose float sum overflowed
            raise _over_budget(_key_value(cfg, key), radius,
                               f"elements in the {which} ball", budget)
        try:
            sizes[which] = groups.ball_measure(metric, radius)
        except groups.BudgetExceededError as exc:
            raise ConfigError(f"{_key_value(cfg, key)}: {exc}") from None
    product = sizes["largest Folner"] * sizes["Folner K"]
    if product > budget:
        raise _over_budget(_key_value(cfg, "folner_k_radius"), product,
                           "elements in the Folner product set", budget)


def _key_value(cfg: dict, key: str) -> str:
    """``key = value`` as an error message names it."""
    value = cfg[key]
    value = (",".join(f"{v:g}" for v in value) if isinstance(value, tuple)
             else groups.format_count(value) if isinstance(value, int) else f"{value:g}")
    return f"{key} = {value}"


# -- Run report ----------------------------------------------------------------------


@dataclass
class RunReport:
    experiment: str
    config: dict
    records: list = field(default_factory=list)
    csv_header: tuple = ()
    csv_rows: list = field(default_factory=list)
    timings: dict = field(default_factory=dict)  # console only, never emitted

    @property
    def overall_pass(self) -> bool:
        return all(r["passed"] for r in self.records if "passed" in r)

    def to_json(self) -> dict:
        return {"experiment": self.experiment, "config": dict(self.config),
                "version": __version__, "records": self.records,
                "overall_pass": self.overall_pass}


def emit_report(report: RunReport, out_dir: str) -> list:
    """Write report.json / rows.csv; returns the written paths."""
    reporting.ensure_dir(out_dir)
    written = [reporting.write_json(report.to_json(),
                                    os.path.join(out_dir, "report.json"))]
    if report.csv_header:
        meta = {"experiment": report.experiment, "config": dict(report.config),
                "version": __version__}
        written.append(reporting.write_csv(
            os.path.join(out_dir, "rows.csv"), report.csv_header,
            report.csv_rows, meta))
    return written


def _record(name, payload=None, passed=None, **fields) -> dict:
    """Flatten a payload dict plus extras into one named record.

    An explicit ``passed`` argument wins over a payload key of the same name;
    otherwise the payload's own flag is promoted.
    """
    merged = {**(payload or {}), **fields}
    payload_passed = merged.pop("passed", None)
    if passed is None:
        passed = payload_passed
    rec = {"name": name, **merged}
    if passed is not None:
        rec["passed"] = bool(passed)
    return rec


# -- Runners -------------------------------------------------------------------------


def _geometry_metric(cfg: dict) -> tuple:
    """The name and the metric of a geometry config: its group's first
    metric by default."""
    name = cfg["metric"] or _GROUP_METRICS[cfg["group"]][0]
    if name == "euclidean":
        return name, groups.euclidean_metric(dim=2)
    if name == "heisenberg_gauge":
        return name, groups.heisenberg_gauge_metric()
    if cfg["group"] == "discrete_heisenberg":
        return name, groups.word_metric(groups.discrete_heisenberg())
    return name, groups.word_metric(groups.integer_lattice(2))


def run_geometry(cfg: dict) -> RunReport:
    report = RunReport("geometry", cfg)
    metric_name, metric = _geometry_metric(cfg)
    _check_geometry_sizes(cfg, metric)
    t0 = time.perf_counter()
    fit = groups.fit_growth_exponent(metric, cfg["growth_radii"])
    report.records.append(_record("growth_fit", fit.to_json()))
    report.timings["growth"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    ad = groups.estimate_annular_decay(metric, cfg["annular_radii"],
                                       cfg["annular_fracs"],
                                       c_max=cfg["annular_c_max"])
    radii = cfg["annular_radii"]
    fresh = sorted({*radii, *((r1 + r2) / 2.0 for r1, r2 in zip(radii, radii[1:]))})
    violations = groups.annular_violations(ad, metric, fresh, cfg["annular_fracs"])
    # c_hat > c_max: no grid delta met c_max and the fit fell back
    report.records.append(_record("annular_decay", ad.to_json(),
                                  passed=violations == 0 and ad.c_hat <= ad.c_max,
                                  violations_recheck=violations))
    report.timings["annular"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    exhaustion = groups.folner_exhaustion(metric, cfg["folner_r0"],
                                          cfg["folner_count"], cfg["folner_step"])
    k = groups.ball(metric, cfg["folner_k_radius"])
    ratios = [groups.folner_ratio(metric, b, k) for b in exhaustion]
    rows = [(i, b.radius, b.measure, ratio)
            for i, (b, ratio) in enumerate(zip(exhaustion, ratios))]
    monotone = all(ratios[i + 1] <= ratios[i] + 1e-12
                   for i in range(len(ratios) - 1))
    report.records.append(_record("folner_table", passed=monotone,
                                  radii=[b.radius for b in exhaustion],
                                  ratios=list(ratios)))
    report.timings["folner"] = time.perf_counter() - t0
    report.csv_header = ("experiment", "n", "radius", "measure", "folner_ratio")
    report.csv_rows = [("folner", i, r, m, q) for (i, r, m, q) in rows]
    report.config = {**cfg, "metric": metric_name}
    return report


def run_rep_check(cfg: dict) -> RunReport:
    report = RunReport("rep-check", cfg)
    n = cfg["n"]
    rep = reps.finite_weyl_heisenberg(n)
    rng = np.random.default_rng(cfg["seed"])
    g = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    g /= np.linalg.norm(g)
    t0 = time.perf_counter()
    orth = reps.verify_orthogonality(rep, trials=cfg["trials"], tol=cfg["tol"],
                                     seed=cfg["seed"])
    report.records.append(_record("orthogonality", orth))
    report.timings["orthogonality"] = time.perf_counter() - t0
    if n <= 16:
        t0 = time.perf_counter()
        coc = reps.verify_cocycle_identity(rep)
        report.records.append(_record("cocycle_identity", coc))
        report.timings["cocycle"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    # radius 2 n reaches past the torus diameter 2 (n // 2): the whole Z_n^2
    est = reps.estimate_formal_degree(rep, g, 2.0 * n)
    report.timings["formal_degree"] = time.perf_counter() - t0
    dev = abs(est - 1.0 / n)
    report.records.append(_record("formal_degree", passed=dev <= 1e-10,
                                  estimate=est, expected=1.0 / n, deviation=dev))
    report.csv_header = ("experiment", "n", "check", "value", "passed")
    report.csv_rows = sorted(
        [("rep-check", n, r["name"], r.get("max_deviation", r.get("deviation", 0.0)),
          r["passed"]) for r in report.records],
        key=lambda row: row[2])
    return report


def run_frame(cfg: dict) -> RunReport:
    report = RunReport("frame", cfg)
    t0 = time.perf_counter()
    if cfg["model"] == "finite":
        n = cfg["n"]
        rep = reps.finite_weyl_heisenberg(n)
        rng = np.random.default_rng(cfg["seed"])
        g = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        g /= np.linalg.norm(g)
        subset = cfg["subset"]
        if subset == "full":
            lam = frames.full_torus(n)
        elif subset == "even_shifts":
            lam = frames.finite_subset(n, [(k, l) for k in range(0, n, 2)
                                           for l in range(n)])
        else:
            lam = frames.finite_subset(n, [(k, 0) for k in range(n)])
        args = (rep, g, lam, cfg["q_radius"])
        phi = frames.finite_synthesis(rep, g, lam)
        fb = frames.finite_frame_operator_spectrum(phi)
        rb = frames.finite_riesz_bounds(phi)
        bessel_fn, amalgam_fn = frames.finite_bessel_separation_bound, frames.finite_amalgam_check
    else:
        lam = frames.lattice(cfg["lattice_a"], cfg["lattice_b"])
        args = (lam, groups.ball(groups.euclidean_metric(dim=2), cfg["q_radius"]))
        fb = frames.frame_operator_spectrum(lam, section_radius=cfg["section_radius"],
                                            margin=cfg["margin"])
        rb = frames.riesz_bounds(lam, restriction_radius=cfg["restriction_radius"])
        bessel_fn, amalgam_fn = frames.bessel_separation_bound, frames.amalgam_check
    report.timings["bounds"] = time.perf_counter() - t0
    report.records.append(_record("frame_bounds", fb.to_json(), passed=True))
    report.records.append(_record("riesz_bounds", rb.to_json(), passed=True))
    t0 = time.perf_counter()
    bessel = bessel_fn(*args, bessel_bound=fb.upper)
    report.timings["bessel"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    amalgam = amalgam_fn(*args, cfg["k_radius"])
    report.timings["amalgam"] = time.perf_counter() - t0
    report.records.append(_record("bessel_separation", bessel))
    report.records.append(_record("amalgam", amalgam))
    report.csv_header = ("experiment", "n", "check", "lhs", "rhs", "passed")
    report.csv_rows = [
        ("frame", 0, "bessel_separation", bessel["rel_sep"], bessel["bound"],
         bessel["passed"]),
        ("frame", 1, "amalgam", amalgam["lhs"], amalgam["rhs"], amalgam["passed"]),
    ]
    return report


def run_density(cfg: dict) -> RunReport:
    report = RunReport("density", cfg)
    lam = frames.lattice(cfg["lattice_a"], cfg["lattice_b"])
    em = groups.euclidean_metric(dim=2)
    exhaustion = [groups.ball(em, r) for r in cfg["radii"]]
    q = groups.ball(em, cfg["q_radius"])
    t0 = time.perf_counter()
    # the one side decision: the bounds, and the error integral (I_n or J_n,
    # in its own CSV column) that the checks and the fit read with them
    if cfg["side"] == "frame":
        bounds = frames.frame_operator_spectrum(
            lam, section_radius=cfg["section_radius"], margin=cfg["margin"])
        integral_fn, integral_cells = density.error_integral_I, lambda v: (v, "")
    else:
        bounds = frames.riesz_bounds(lam, restriction_radius=cfg["restriction_radius"])
        integral_fn, integral_cells = density.error_integral_J, lambda v: ("", v)
    report.timings["bounds"] = time.perf_counter() - t0
    if bounds.kind != cfg["side"]:  # A = 0: the counting theorem's hypothesis fails
        raise ConfigError(f"lattice_a = {cfg['lattice_a']:g}, lattice_b = "
                          f"{cfg['lattice_b']:g} give no {cfg['side']} bounds (A = 0)")
    t0 = time.perf_counter()
    integrals = integral_fn(q, exhaustion)
    report.timings["integrals"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    dens = density.beurling_density(lam, exhaustion)
    report.timings["density"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    checks = density.check_counting(q, bounds, estimate=dens, integrals=integrals)
    report.timings["checks"] = time.perf_counter() - t0
    if math.isinf(checks[0].constant):  # an infinite C makes every check vacuous
        raise ConfigError(f"q_radius = {cfg['q_radius']:g} on lattice_a = "
                          f"{cfg['lattice_a']:g}, lattice_b = {cfg['lattice_b']:g} "
                          "overflows the counting constant C")
    report.records.append(_record("bounds", bounds.to_json(), passed=True))
    for chk in checks:
        report.records.append(_record(chk.theorem, chk.to_json()))
    report.records.append(_record("density_estimate", lower=dens.lower,
                                  upper=dens.upper, rel_sep=dens.rel_sep))
    if cfg["fit_exponent"]:
        fit = density.check_polynomial_error_exponent(
            dens.records, integrals, cfg["alpha"])
        report.records.append(_record(fit.theorem, fit.to_json()))
    report.csv_header = ("n", "r_n", "inf_count", "sup_count", "measure",
                         "I_n", "J_n", "lhs", "rhs", "margin", "pass")
    # zip stops at the last K_n, before the frame side's T3.6 record
    report.csv_rows = [(rec.n, rec.radius, rec.inf_count, rec.sup_count, rec.measure,
                        *integral_cells(integ.value), chk.lhs, chk.rhs, chk.margin,
                        chk.passed)
                       for rec, integ, chk in zip(dens.records, integrals, checks)]
    return report


def run_hole(cfg: dict) -> RunReport:
    report = RunReport("hole", cfg)
    t0 = time.perf_counter()
    try:
        exps = density.run_hole_falsification(
            cfg["lattice_a"], cfg["lattice_b"], cfg["hole_radii"],
            cfg["section_radius"], r0=cfg["r0"], alpha=cfg["alpha"],
            margin=cfg["margin"])
    except OverflowError as exc:  # the theorem radius, whose base is measured
        raise ConfigError(f"{_key_value(cfg, 'alpha')}: {exc}") from None
    report.timings["experiments"] = time.perf_counter() - t0
    a_prev = None
    monotone = True
    for e in exps:
        if a_prev is not None and e.bounds.lower > a_prev + 1e-12:
            monotone = False
        a_prev = e.bounds.lower
        report.records.append(_record(f"hole_r={e.hole_radius:g}", e.to_json()))
    report.records.append(_record("lower_bound_monotone", passed=monotone))
    report.csv_header = ("experiment", "n", "hole_radius", "A", "B",
                         "theorem_radius", "tail_value", "tail_envelope", "pass")
    report.csv_rows = [
        ("hole", i, e.hole_radius, e.bounds.lower, e.bounds.upper,
         "" if e.theorem_radius is None else e.theorem_radius,
         "" if e.tail_value is None else e.tail_value,
         "" if e.tail_envelope is None else e.tail_envelope, e.passed)
        for i, e in enumerate(exps)]
    return report


_RUNNERS = {"geometry": run_geometry, "rep-check": run_rep_check,
            "frame": run_frame, "density": run_density, "hole": run_hole}


def run_experiment(experiment: str, config_path: str, out_dir: str) -> RunReport:
    cfg = load_config(config_path, experiment)
    report = _RUNNERS[experiment](cfg)
    emit_report(report, out_dir)
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="coherentlab",
        description="Coherent-frame experiments: geometry, representation "
                    "checks, frame bounds, densities, and hole falsification.")
    sub = parser.add_subparsers(dest="experiment", required=True)
    for kind in EXPERIMENTS:
        p = sub.add_parser(kind)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default="out")
    args = parser.parse_args(argv)
    try:
        report = run_experiment(args.experiment, args.config, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except groups.BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 2
    for rec in report.records:
        if "passed" in rec:
            print(f"[{'PASS' if rec['passed'] else 'FAIL'}] {rec['name']}")
    for stage, dt in report.timings.items():
        print(f"  time[{stage}] = {dt:.2f}s")
    print(f"overall: {'PASS' if report.overall_pass else 'FAIL'} "
          f"(outputs in {args.out})")
    return 0 if report.overall_pass else 1


if __name__ == "__main__":
    sys.exit(main())
