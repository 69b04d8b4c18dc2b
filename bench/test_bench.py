"""Tests of the benchmark itself, on tiny workloads.

    python -m pytest -q bench
"""

import dataclasses
import json
import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path[:0] = [SRC, HERE]

import pytest  # noqa: E402

from coherentlab import cli  # noqa: E402

import harness  # noqa: E402
import layertrace  # noqa: E402
import oracles  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# the shipped frame_gaussian and geometry_heisenberg configs: well under 1 s
TINY_FRAME = dataclasses.replace(WORKLOADS["frame-bessel"], params=lambda seed: {
    "model": "gaussian", "lattice_a": 0.5, "lattice_b": 0.5, "section_radius": 12.0,
    "margin": 3.0, "restriction_radius": 4.0, "q_radius": 0.6, "k_radius": 4.0})
TINY_GEOMETRY = dataclasses.replace(WORKLOADS["geometry-h3"], params=lambda seed: {
    "group": "discrete_heisenberg", "metric": "word",
    "growth_radii": [5, 6, 7, 8, 9, 10, 11, 12], "folner_count": 2, "folner_step": 4,
    "annular_radii": [4, 8, 12]})


def _declared(kind: str) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


# every binding the tracer patches, taken before any test traces anything
BINDINGS = [(owner, attr, fn) for _, fn, sites in layertrace.traced_targets()
            for owner, attr in sites]


def _files(w, tmp_path, seed=0):
    ini = tmp_path / "config.ini"
    ini.write_text(w.config_text(seed))
    return w.params(seed), str(ini), str(tmp_path / "report")


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_printed_with_unit(tmp_path, trace, kind):
    lines = []
    result = harness.measure(TINY_FRAME, 0, 0.0, bool(trace), str(tmp_path), SRC,
                             log=lines.append)
    declared = _declared(kind)
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    for name, unit in declared.items():
        assert any(ln.startswith(f"metric {name} = ") and ln.endswith(f" {unit}")
                   for ln in lines), name
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    json.dumps(result)


def test_wrappers_removed_after_traced_runs(tmp_path):
    params, ini, out = _files(TINY_GEOMETRY, tmp_path)
    tracer = layertrace.LayerTracer()
    _, _, failures = harness.attempt(TINY_GEOMETRY, params, ini, out, None, tracer)
    assert failures == [] and tracer.spans
    # a run that raises inside a traced call must restore the bindings too
    _, _, failures = harness.attempt(TINY_GEOMETRY, params, str(tmp_path / "missing.ini"),
                                     out, None, layertrace.LayerTracer())
    assert failures and "raised" in failures[0]
    assert len(BINDINGS) > 100
    for owner, attr, fn in BINDINGS:
        assert getattr(owner, attr) is fn, (owner, attr)


def test_layer_self_times_account_for_traced_wall(tmp_path):
    params, ini, out = _files(TINY_FRAME, tmp_path)
    tracer = layertrace.LayerTracer()
    wall, _, failures = harness.attempt(TINY_FRAME, params, ini, out, None, tracer)
    assert failures == []
    self_times = tracer.self_times()
    assert all(v >= 0.0 for v in self_times.values())
    unattributed = wall - sum(self_times.values())
    assert -1e-6 <= unattributed <= 0.001 + 0.01 * wall
    # the Gram loop is aggregated, not recorded span by span
    m = tracer.counts["frames.gram_dim"][0]
    assert tracer.leaves["frames.gabor_gram_entry"][0] == m * (m - 1) // 2
    assert not any(s[0] == "frames.gabor_gram_entry" for s in tracer.spans)


def _corrupt_nth_emit(monkeypatch, n, edit):
    original = cli.emit_report
    calls = []

    def emit(report, out_dir, *args):
        written = original(report, out_dir, *args)
        calls.append(1)
        if len(calls) == n:
            path = os.path.join(out_dir, "report.json")
            with open(path) as fh:
                text = fh.read()
            with open(path, "w") as fh:
                fh.write(edit(text))
        return written

    monkeypatch.setattr(cli, "emit_report", emit)


@pytest.mark.parametrize("edit", [
    lambda text: text + " ",  # bytes differ from the first run's
    lambda text: text.replace('"overall_pass": true', '"overall_pass": false'),
])
def test_injected_bad_report_counts_in_error_rate(tmp_path, monkeypatch, edit):
    _corrupt_nth_emit(monkeypatch, 2, edit)
    lines = []
    result = harness.measure(TINY_GEOMETRY, 0, 0.0, False, str(tmp_path), SRC,
                             log=lines.append)
    assert result["failed"] == 1 and not result["correct"]
    rate = result["metrics"]["success_rate"]["value"]
    assert rate == pytest.approx(1.0 - 1.0 / result["attempted"])
    assert any(ln.startswith("FAILED run 0") for ln in lines)


def test_oracle_failure_fails_every_run(tmp_path, monkeypatch):
    monkeypatch.setattr(oracles, "h3_ball_volumes", lambda radii: [0 for _ in radii])
    result = harness.measure(TINY_GEOMETRY, 0, 0.0, False, str(tmp_path), SRC,
                             log=lambda line: None)
    assert result["failed"] == result["attempted"] >= 2


def test_lattice_count_matches_enumeration():
    rng = random.Random(7)
    for _ in range(40):
        a = rng.uniform(0.3, 0.7)
        b = rng.uniform(0.3, 0.7)
        cx, cy, r = rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(0.2, 4.0)
        pts = [(k * a, l * b) for k in range(-20, 21) for l in range(-20, 21)]
        d2 = [(x - cx) ** 2 + (y - cy) ** 2 for x, y in pts]
        assert oracles.lattice_count(a, b, cx, cy, r) == sum(d <= r * r for d in d2)
        assert oracles.lattice_count(a, b, cx, cy, r, closed=False) == \
            sum(d < r * r for d in d2)
    # points exactly on the circle: (3, 4) at radius 5
    assert oracles.lattice_count(0.5, 0.5, 0.0, 0.0, 5.0) - \
        oracles.lattice_count(0.5, 0.5, 0.0, 0.0, 5.0, closed=False) == 4 * 3


def test_h3_ball_volumes():
    assert oracles.h3_ball_volumes([0, 1, 2]) == [1, 5, 17]


def test_seeded_inputs():
    for w in WORKLOADS.values():
        assert w.config_text(5) == w.config_text(5)
        assert (w.config_text(5) != w.config_text(6)) == (w.kind != "geometry")
    nominal = WORKLOADS["density-counting"].params(0)
    assert nominal["radii"] == [6.0, 10.0, 14.0, 20.0, 28.0]
    assert (nominal["lattice_a"], nominal["lattice_b"]) == (0.5, 0.5)
    for seed in range(1, 30):
        for name in ("density-counting", "hole-spectra", "frame-bessel"):
            p = WORKLOADS[name].params(seed)
            assert 0.45 <= p["lattice_a"] <= 0.55 and 0.45 <= p["lattice_b"] <= 0.55
            assert p["lattice_a"] * p["lattice_b"] == pytest.approx(0.25, rel=1e-5)
        holes = WORKLOADS["hole-spectra"].params(seed)["hole_radii"]
        assert holes[0] == 0.0 and all(0.5 <= r <= 8.0 for r in holes[1:])
        assert holes == sorted(holes)
