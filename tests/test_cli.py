"""Command-line interface: config parsing and validation, deterministic
report emission, exit codes and console summary lines."""

import configparser
import json
import os
import random
import re
import subprocess
import sys

import pytest

import numpy as np

from coherentlab import cli, frames, groups, reporting

CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "configs")


def write_ini(tmp_path, name, section, body):
    path = tmp_path / name
    lines = [f"[{section}]"] + [f"{k} = {v}" for k, v in body.items()]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def test_load_config_defaults_and_overrides(tmp_path):
    path = write_ini(tmp_path, "rc.ini", "rep-check", {"n": 12, "seed": 7})
    cfg = cli.load_config(path, "rep-check")
    assert cfg["n"] == 12
    assert cfg["seed"] == 7
    assert cfg["trials"] == 20  # schema default
    assert cfg["tol"] == 1e-10
    assert sorted(cfg) == ["n", "seed", "tol", "trials"]


def test_load_config_errors_name_the_offending_key(tmp_path):
    bogus = write_ini(tmp_path, "a.ini", "rep-check", {"n": 8, "bogus_key": 1})
    with pytest.raises(cli.ConfigError, match="bogus_key"):
        cli.load_config(bogus, "rep-check")
    bad_type = write_ini(tmp_path, "b.ini", "rep-check", {"n": "eight"})
    with pytest.raises(cli.ConfigError, match="'n'"):
        cli.load_config(bad_type, "rep-check")
    bad_choice = write_ini(tmp_path, "c.ini", "frame", {"model": "banach"})
    with pytest.raises(cli.ConfigError, match="model"):
        cli.load_config(bad_choice, "frame")
    step = write_ini(tmp_path, "d.ini", "geometry",
                     {"folner_r0": 1, "folner_step": 0.5})
    with pytest.raises(cli.ConfigError, match="step"):
        cli.load_config(step, "geometry")
    wrong_section = write_ini(tmp_path, "e.ini", "density", {"side": "frame"})
    with pytest.raises(cli.ConfigError, match="rep-check"):
        cli.load_config(wrong_section, "rep-check")
    with pytest.raises(cli.ConfigError, match="no_such_file"):
        cli.load_config(str(tmp_path / "no_such_file.ini"), "rep-check")
    # exhaustive checks enumerate Z_n^2: the schema bounds n for both runs
    n_range = write_ini(tmp_path, "f.ini", "rep-check", {"n": 128})
    with pytest.raises(cli.ConfigError, match=r"'n'.*must be in \[2, 64\]"):
        cli.load_config(n_range, "rep-check")
    n_finite = write_ini(tmp_path, "f2.ini", "frame", {"model": "finite", "n": 65})
    with pytest.raises(cli.ConfigError, match=r"'n'.*must be in \[2, 64\]"):
        cli.load_config(n_finite, "frame")
    fitcfg = write_ini(tmp_path, "g.ini", "density",
                       {"fit_exponent": "true", "radii": "6,10,14"})
    with pytest.raises(cli.ConfigError, match="fit_exponent"):
        cli.load_config(fitcfg, "density")
    regime = write_ini(tmp_path, "h.ini", "hole",
                       {"lattice_a": 1.0, "lattice_b": 1.0})
    with pytest.raises(cli.ConfigError, match="frame regime"):
        cli.load_config(regime, "hole")


def test_validate_hole_and_density_budgets(tmp_path):
    small_section = write_ini(tmp_path, "a.ini", "hole",
                              {"hole_radii": "0,1,2,8", "section_radius": 12})
    with pytest.raises(cli.ConfigError, match="section_radius"):
        cli.load_config(small_section, "hole")
    r0 = write_ini(tmp_path, "b.ini", "hole", {"r0": 0.5})
    with pytest.raises(cli.ConfigError, match="r0"):
        cli.load_config(r0, "hole")
    # alpha + delta > 1 with the plane's delta = 1
    expo = write_ini(tmp_path, "c.ini", "hole", {"alpha": 0})
    with pytest.raises(cli.ConfigError, match="alpha"):
        cli.load_config(expo, "hole")
    huge = write_ini(tmp_path, "d.ini", "density",
                     {"radii": "6,10,4000", "lattice_a": 0.5, "lattice_b": 0.5})
    with pytest.raises(cli.ConfigError, match="budget"):
        cli.load_config(huge, "density")


def test_section_and_gram_budgets_name_the_radius(tmp_path, capsys):
    # checked while the config loads, before any coefficient or Gram entry exists
    cases = [
        # 513 modes x ~5e5 points on 0.5Z^2: ~2.6e8 section entries
        ("density", {"section_radius": 200}, "section_radius"),
        ("hole", {"section_radius": 200, "hole_radii": "0,1"}, "section_radius"),
        ("frame", {"section_radius": 200}, "section_radius"),
        # ~4.5e4 points on 0.5Z^2: a ~2e9-entry Gram
        ("frame", {"restriction_radius": 60}, "restriction_radius"),
        ("density", {"side": "riesz", "lattice_a": 2, "lattice_b": 1,
                     "restriction_radius": 500}, "restriction_radius"),
    ]
    for i, (experiment, body, key) in enumerate(cases):
        path = write_ini(tmp_path, f"{i}.ini", experiment, body)
        with pytest.raises(cli.ConfigError, match=rf"\b{key}\b.*budget"):
            cli.load_config(path, experiment)
        assert cli.main([experiment, "--config", path, "--out", str(tmp_path / "out")]) == 2
        assert re.search(rf"\b{key}\b", capsys.readouterr().err)
    # a radius that the run does not read is refused, not budgeted: the
    # finite model has no Gram restriction and no section, the riesz side no
    # section
    unread = [("frame", {"model": "finite", "section_radius": 200}, "section_radius"),
              ("frame", {"model": "finite", "restriction_radius": 60}, "restriction_radius"),
              ("density", {"side": "riesz", "lattice_a": 2, "lattice_b": 1,
                           "section_radius": 200}, "section_radius")]
    for i, (experiment, body, key) in enumerate(unread):
        path = write_ini(tmp_path, f"unread{i}.ini", experiment, body)
        with pytest.raises(cli.ConfigError, match=rf"^key '{key}' is not read when"):
            cli.load_config(path, experiment)
        assert cli.main([experiment, "--config", path, "--out", str(tmp_path / "out")]) == 2
        assert re.search(rf"\b{key}\b", capsys.readouterr().err)
    assert not (tmp_path / "out").exists()
    # the largest section in use (R = 16, 513 modes on a 0.48 x 0.52 lattice,
    # ~2.2e6 entries) and a 7-radius Gram load under the default budget
    big = write_ini(tmp_path, "big.ini", "frame", {
        "lattice_a": 0.48, "lattice_b": 0.520833, "section_radius": 16,
        "restriction_radius": 7})
    assert cli.load_config(big, "frame")["section_radius"] == 16


def test_centre_grid_budget_exits_2_naming_the_lattice_spacings(tmp_path, monkeypatch,
                                                                capsys):
    # the centre grid of spacing min(a, b) / 8 over one cell holds
    # 8 x 800,000 centres on 0.001 x 100: rejected while the config loads,
    # before any centre is built, naming the two spacings that set its size
    path = write_ini(tmp_path, "d.ini", "density", {
        "side": "riesz", "lattice_a": 0.001, "lattice_b": 100, "radii": "0.01,0.02",
        "restriction_radius": 0.5})
    assert cli.main(["density", "--config", path, "--out", str(tmp_path / "out")]) == 2
    out, err = capsys.readouterr()
    assert "overall" not in out
    assert re.match(r"lattice_a = 0.001, lattice_b = 100 gives ~6.4e\+06 centres, "
                    r"over the enumeration budget", err.split(": ", 1)[1]), err
    assert not (tmp_path / "out").exists()
    # the bound is the enumeration budget: 8 x 120 centres fit in 1000, 8 x 128
    # do not (the riesz side with one Gram point keeps the spectral part under
    # 1000 too, radii up to 1.5 the largest ball, and Q of radius 0.1 the
    # cover matrix)
    monkeypatch.setenv(groups.BUDGET_ENV_VAR, "1000")
    small = {"radii": "0.5,1,1.5", "side": "riesz", "restriction_radius": 0.05,
             "q_radius": 0.1, "lattice_a": 0.1}
    fits = write_ini(tmp_path, "fits.ini", "density", {**small, "lattice_b": 1.5})
    assert cli.load_config(fits, "density")["lattice_b"] == 1.5
    over = write_ini(tmp_path, "over.ini", "density", {**small, "lattice_b": 1.6})
    with pytest.raises(cli.ConfigError,
                       match=r"^lattice_a = 0.1, lattice_b = 1.6 gives .* centres.*budget"):
        cli.load_config(over, "density")


def test_main_exit_codes_and_console_lines(tmp_path, capsys):
    rc = write_ini(tmp_path, "rc.ini", "rep-check", {"n": 6, "trials": 4})
    code = cli.main(["rep-check", "--config", rc,
                     "--out", str(tmp_path / "out_ok")])
    out = capsys.readouterr().out
    assert code == 0
    assert "[PASS] orthogonality" in out
    assert "overall: PASS" in out
    assert "time[" in out
    # timings are console-only, never serialized
    report = json.loads((tmp_path / "out_ok" / "report.json").read_text())
    assert "timings" not in report
    strict = write_ini(tmp_path, "strict.ini", "rep-check",
                       {"n": 6, "trials": 4, "tol": 1e-30})
    code = cli.main(["rep-check", "--config", strict,
                     "--out", str(tmp_path / "out_fail")])
    out = capsys.readouterr().out
    assert code == 1
    assert "[FAIL]" in out and "overall: FAIL" in out
    bogus = write_ini(tmp_path, "bogus.ini", "rep-check", {"nope": 1})
    code = cli.main(["rep-check", "--config", bogus,
                     "--out", str(tmp_path / "out_err")])
    err = capsys.readouterr().err
    assert code == 2
    assert "nope" in err


def test_keys_the_plane_fixes_and_unread_seeds_are_refused(tmp_path, capsys):
    # delta = 1 is exact on R^2 and C0 is a closed form; no geometry, density
    # or hole runner reads a seed.  The density centre spacing, quadrature
    # tolerance and diagnostic flag, the frame matrix dumps, and rep-check's
    # window and formal-degree radius keep the one value every shipped run used
    removed = [("density", "delta"), ("hole", "delta"), ("hole", "calibration_radius"),
               ("geometry", "seed"), ("density", "seed"), ("hole", "seed"),
               ("density", "diagnostic"), ("density", "tol"), ("density", "grid_spacing"),
               ("frame", "dump_matrices"), ("rep-check", "degree_radius"),
               ("rep-check", "window")]
    for i, (experiment, key) in enumerate(removed):
        path = write_ini(tmp_path, f"{i}.ini", experiment, {key: 1})
        assert cli.main([experiment, "--config", path, "--out", str(tmp_path / "out")]) == 2
        out, err = capsys.readouterr()
        assert f"unknown key '{key}' in [{experiment}]" in err, err
        assert "Traceback" not in err and "overall" not in out
    # the INI seed is the only setter of a seed
    for i, experiment in enumerate(cli.EXPERIMENTS):
        path = write_ini(tmp_path, f"s{i}.ini", experiment, {})
        with pytest.raises(SystemExit) as exc:
            cli.main([experiment, "--config", path, "--seed", "1"])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


FRAME_READS = {"model", "q_radius", "k_radius"}
DENSITY_READS = {"side", "lattice_a", "lattice_b", "radii", "q_radius", "fit_exponent"}


# (section, base INI body, the shipped config of the variant or None, the
# keys the variant reads, the keys that only another variant reads)
@pytest.mark.parametrize("experiment, base, shipped, reads, unread", [
    ("frame", {"model": "gaussian"}, "frame_gaussian.ini",
     FRAME_READS | {"lattice_a", "lattice_b", "section_radius", "margin",
                    "restriction_radius"},
     ("n", "subset", "seed")),
    ("frame", {"model": "finite"}, "frame_finite.ini",
     FRAME_READS | {"n", "subset", "seed"},
     ("lattice_a", "lattice_b", "section_radius", "margin", "restriction_radius")),
    ("density", {"side": "frame"}, "density_frame.ini",
     DENSITY_READS | {"section_radius", "margin"}, ("restriction_radius",)),
    ("density", {"side": "riesz", "lattice_a": 2, "lattice_b": 1}, "density_riesz.ini",
     DENSITY_READS | {"restriction_radius"}, ("section_radius", "margin")),
    # alpha is the T4.3 fit's exponent: read only with fit_exponent = true
    ("density", {}, None, DENSITY_READS | {"section_radius", "margin"}, ("alpha",)),
    ("density", {"radii": "6,10,14,28", "fit_exponent": "true"}, None,
     DENSITY_READS | {"section_radius", "margin", "alpha"}, ()),
], ids=["frame-gaussian", "frame-finite", "density-frame", "density-riesz",
        "density-no-fit", "density-fit"])
def test_each_variant_reads_and_echoes_only_its_own_keys(tmp_path, capsys, experiment,
                                                          base, shipped, reads, unread):
    assert set(cli.load_config(write_ini(tmp_path, "base.ini", experiment, base),
                               experiment)) == reads
    # a key that this variant does not read exits 2 naming it, even at the
    # value that another variant takes by default, before any report is written
    for key in unread:
        default = cli._SCHEMAS[experiment][key][1]
        path = write_ini(tmp_path, f"{key}.ini", experiment, {**base, key: default})
        assert cli.main([experiment, "--config", path, "--out", str(tmp_path / "out")]) == 2
        out, err = capsys.readouterr()
        assert f"config error: key '{key}' is not read when " in err, err
        assert "Traceback" not in err and "overall" not in out
    assert not (tmp_path / "out").exists()
    # the report's config echo lists only the settings the run used
    if shipped is not None:
        assert cli.main([experiment, "--config", os.path.join(CONFIG_DIR, shipped),
                         "--out", str(tmp_path / "shipped")]) == 0
        report = json.loads((tmp_path / "shipped" / "report.json").read_text())
        assert set(report["config"]) == reads


def test_reruns_are_byte_identical(tmp_path):
    rc = os.path.join(CONFIG_DIR, "rep_check.ini")
    dens = os.path.join(CONFIG_DIR, "density_frame.ini")
    for name, config in (("rep-check", rc), ("density", dens)):
        out1, out2 = tmp_path / "r1" / name, tmp_path / "r2" / name
        assert cli.main([name, "--config", config, "--out", str(out1)]) == 0
        assert cli.main([name, "--config", config, "--out", str(out2)]) == 0
        for fname in os.listdir(out1):
            b1 = (out1 / fname).read_bytes()
            b2 = (out2 / fname).read_bytes()
            assert b1 == b2, f"{name}/{fname} differs between reruns"


def test_density_csv_shape_and_meta(tmp_path):
    config = os.path.join(CONFIG_DIR, "density_frame.ini")
    assert cli.main(["density", "--config", config,
                     "--out", str(tmp_path / "out")]) == 0
    lines = (tmp_path / "out" / "rows.csv").read_text().splitlines()
    meta_lines = [ln for ln in lines if ln.startswith("# ")]
    assert meta_lines, "expected a '#'-prefixed JSON metadata block"
    meta = json.loads("\n".join(ln[2:] for ln in meta_lines))
    assert meta["experiment"] == "density"
    assert meta["config"]["side"] == "frame"
    header_idx = len(meta_lines)
    assert lines[header_idx] == "n,r_n,inf_count,sup_count,measure,I_n,J_n,lhs,rhs,margin,pass"
    data = [ln.split(",") for ln in lines[header_idx + 1:]]
    assert len(data) == 3
    for row in data:
        assert row[5] != ""  # I_n populated on the frame side
        assert row[6] == ""  # J_n column blank
        assert row[10] == "true"


def test_frame_matrix_dumps(tmp_path, capsys):
    # a frame run writes no matrix dumps: its stage timings go to the console
    # only, and its files are the report and the rows
    finite = write_ini(tmp_path, "ff.ini", "frame",
                       {"model": "finite", "n": 6, "subset": "full"})
    assert cli.main(["frame", "--config", finite,
                     "--out", str(tmp_path / "fin")]) == 0
    out = capsys.readouterr().out
    for stage in ("bounds", "bessel", "amalgam"):
        assert f"time[{stage}]" in out
    assert "timings" not in json.loads((tmp_path / "fin" / "report.json").read_text())
    gaussian = write_ini(tmp_path, "fg.ini", "frame",
                         {"model": "gaussian", "lattice_a": 0.5,
                          "lattice_b": 0.5, "restriction_radius": 2})
    assert cli.main(["frame", "--config", gaussian,
                     "--out", str(tmp_path / "gau")]) == 0
    for run in ("fin", "gau"):
        assert sorted(os.listdir(tmp_path / run)) == ["report.json", "rows.csv"]


@pytest.mark.parametrize("model", ["finite", "gaussian"])
def test_frame_run_records_the_bounds_and_the_two_lemmas_only(tmp_path, monkeypatch, model):
    # a frame run checks the frame and Riesz bounds, the Bessel-separation
    # lemma and the amalgam inequality; the finite run covers Q once, for g
    calls = []
    cover = frames.finite_lemma_cover_constant

    def spy(*args):
        calls.append(args)
        return cover(*args)

    monkeypatch.setattr(frames, "finite_lemma_cover_constant", spy)
    path = write_ini(tmp_path, "f.ini", "frame", {"model": model})
    report = cli.run_experiment("frame", path, str(tmp_path / "out"))
    assert [r["name"] for r in report.records] == [
        "frame_bounds", "riesz_bounds", "bessel_separation", "amalgam"]
    assert len(calls) == (1 if model == "finite" else 0)


def test_malformed_budget_variable_exits_2_naming_it(tmp_path, monkeypatch, capsys):
    configs = [("geometry", "geometry_heisenberg.ini"), ("frame", "frame_finite.ini")]
    for experiment, name in configs:
        args = [experiment, "--config", os.path.join(CONFIG_DIR, name),
                "--out", str(tmp_path / experiment)]
        for value in ("abc", "2.5", "0", "-1"):
            monkeypatch.setenv(groups.BUDGET_ENV_VAR, value)
            assert cli.main(args) == 2, (experiment, value)
            assert groups.BUDGET_ENV_VAR in capsys.readouterr().err
        monkeypatch.setenv(groups.BUDGET_ENV_VAR, "")  # blank: the default
        assert cli.main(args) == 0


def test_run_report_overall_pass_reads_every_passed_flag():
    rep = cli.RunReport(experiment="density", config={}, records=[
        {"name": "a", "passed": True}, {"name": "c"}])
    assert rep.overall_pass
    rep_fail = cli.RunReport(experiment="density", config={}, records=[
        {"name": "a", "passed": True}, {"name": "b", "passed": False}])
    assert not rep_fail.overall_pass


def test_quantize_and_csv_cells(tmp_path):
    q = reporting.quantize
    assert q(0.1 + 0.2) == float(f"{0.1 + 0.2:.12g}")
    assert q(float("nan")) is None
    assert q(float("inf")) is None
    assert q(1 + 2j) == {"re": 1.0, "im": 2.0}
    assert q({"x": (1.0, 2.0)}) == {"x": [1.0, 2.0]}
    import numpy as np
    assert q(np.float64(1.5)) == 1.5
    assert q(np.arange(3)) == [0, 1, 2]
    with pytest.raises(TypeError):
        q(object())
    path = tmp_path / "t.csv"
    reporting.write_csv(str(path), ["a", "b", "c"],
                        [[True, None, 1.25], [False, "", 2]])
    assert path.read_text() == "a,b,c\ntrue,,1.25\nfalse,,2\n"


def test_json_reports_are_sorted_and_newline_terminated(tmp_path):
    path = reporting.write_json({"b": 1.0, "a": {"z": 2.0, "y": 3.0}},
                                str(tmp_path / "r.json"))
    text = open(path).read()
    assert text.endswith("\n")
    assert text.index('"a"') < text.index('"b"')
    assert json.loads(text) == {"b": 1.0, "a": {"z": 2.0, "y": 3.0}}


# small configs, one per experiment (and model/side), that run in well under a second
SWEEP_BASES = [
    ("frame", {"model": "gaussian", "lattice_a": 1.0, "lattice_b": 1.0,
               "section_radius": 6, "restriction_radius": 2, "k_radius": 2}),
    ("frame", {"model": "finite", "n": 4, "q_radius": 1, "k_radius": 1}),
    ("density", {"side": "frame", "radii": "2,3", "section_radius": 6}),
    ("density", {"side": "riesz", "lattice_a": 2.0, "lattice_b": 1.0, "radii": "2,3",
                 "restriction_radius": 2}),
    ("geometry", {"growth_radii": "1,2,3,4", "folner_count": 1, "folner_step": 2,
                  "annular_radii": "2,4", "annular_fracs": "0.5"}),
    ("rep-check", {"n": 4, "trials": 2}),
    ("hole", {"hole_radii": "0,1", "section_radius": 6}),
]


def _numeric_keys(experiment):
    return [key for key, (typ, *_) in cli._SCHEMAS[experiment].items()
            if typ in ("int", "float", "floats")]


def test_bad_numeric_values_exit_2_naming_the_key(tmp_path, capsys):
    rejected = 0
    for i, (experiment, base) in enumerate(SWEEP_BASES):
        for key in _numeric_keys(experiment):
            for value in ("0", "-1"):
                path = write_ini(tmp_path, f"{i}-{key}{value}.ini", experiment,
                                 {**base, key: value})
                code = cli.main([experiment, "--config", path,
                                 "--out", str(tmp_path / "out")])
                err = capsys.readouterr().err
                assert code in (0, 1, 2), (experiment, key, value)
                if code == 2:
                    rejected += 1
                    message = err.split(": ", 1)[1]
                    assert re.search(rf"\b{key}\b", message), (experiment, key, value, err)
            # non-finite numbers never reach a runner
            for value in ("nan", "inf", "-inf"):
                path = write_ini(tmp_path, f"{i}-{key}{value}.ini", experiment,
                                 {**base, key: value})
                with pytest.raises(cli.ConfigError, match=f"'{key}'"):
                    cli.load_config(path, experiment)
    assert rejected >= 60
    # a section that finds no frame (A = 0) fails the counting checks'
    # hypothesis: exit 2, not a traceback
    path = write_ini(tmp_path, "critical.ini", "density",
                     {**SWEEP_BASES[2][1], "lattice_a": 1.0, "lattice_b": 1.0,
                      "margin": 0})
    assert cli.main(["density", "--config", path, "--out", str(tmp_path / "out")]) == 2
    assert "lattice_a" in capsys.readouterr().err


def test_density_frame_side_rejects_gaussian_lattices_with_ab_at_least_one(tmp_path, capsys):
    # ab = 1 and ab = 1.1 admit no Gaussian frame (Lyubarskii; Seip-Wallsten),
    # though a truncated section finds A > 0 on both: exit 2 naming the keys
    for a in (1.0, 1.0488):
        path = write_ini(tmp_path, f"critical{a:g}.ini", "density",
                         {"side": "frame", "lattice_a": a, "lattice_b": a,
                          "radii": "6,10,14", "q_radius": 1})
        code = cli.main(["density", "--config", path, "--out", str(tmp_path / "out")])
        out, err = capsys.readouterr()
        assert code == 2 and "overall" not in out
        assert "lattice_a" in err and "lattice_b" in err


def test_geometry_metric_must_belong_to_its_group(tmp_path, capsys):
    base = SWEEP_BASES[4][1]
    for group, metrics in cli._GROUP_METRICS.items():
        for metric in ("word", "euclidean", "heisenberg_gauge"):
            path = write_ini(tmp_path, f"{group}-{metric}.ini", "geometry",
                             {**base, "group": group, "metric": metric})
            out = tmp_path / "out" / f"{group}-{metric}"
            code = cli.main(["geometry", "--config", path, "--out", str(out)])
            stdout, err = capsys.readouterr()
            if metric in metrics:
                assert code == 0, (group, metric, err)
                report = json.loads((out / "report.json").read_text())
                assert report["config"]["metric"] == metric
            else:
                assert code == 2 and "overall" not in stdout, (group, metric)
                assert re.search(r"\bmetric\b", err.split(": ", 1)[1]), err
        # a blank metric takes the group's default, and the report names it
        path = write_ini(tmp_path, f"{group}-auto.ini", "geometry", {**base, "group": group})
        out = tmp_path / "out" / f"{group}-auto"
        assert cli.main(["geometry", "--config", path, "--out", str(out)]) == 0
        capsys.readouterr()
        report = json.loads((out / "report.json").read_text())
        assert report["config"]["metric"] == metrics[0]


def test_empty_float_lists_exit_2_naming_the_key(tmp_path, capsys):
    checked = 0
    for i, (experiment, base) in enumerate(SWEEP_BASES):
        for key, (typ, *_) in cli._SCHEMAS[experiment].items():
            if typ != "floats":
                continue
            for value in ("", ","):
                path = write_ini(tmp_path, f"{i}-{key}-empty.ini", experiment,
                                 {**base, key: value})
                code = cli.main([experiment, "--config", path,
                                 "--out", str(tmp_path / "out")])
                out, err = capsys.readouterr()
                assert code == 2 and "overall" not in out, (experiment, key, value)
                assert re.search(rf"'{key}'.*nonempty", err), (experiment, key, err)
                checked += 1
    # growth_radii, annular_radii, annular_fracs, radii (both sides), hole_radii
    assert checked == 2 * 6


def test_python_dash_m_coherentlab_matches_the_in_process_run(tmp_path):
    config = os.path.join(CONFIG_DIR, "geometry_lattice.ini")
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run(
        [sys.executable, "-m", "coherentlab", "geometry", "--config", config,
         "--out", str(tmp_path / "module")],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert "overall: PASS" in proc.stdout
    assert cli.main(["geometry", "--config", config,
                     "--out", str(tmp_path / "inproc")]) == 0
    names = sorted(os.listdir(tmp_path / "inproc"))
    assert names == sorted(os.listdir(tmp_path / "module"))
    for name in names:
        assert ((tmp_path / "module" / name).read_bytes()
                == (tmp_path / "inproc" / name).read_bytes()), name


def test_ini_syntax_errors_exit_2_naming_the_key_or_line(tmp_path, capsys):
    cases = [
        ("[density]\nradii = 6,10\nradii = 6,12\n", r"key 'radii' repeats.*line 3"),
        ("[density]\nradii = 6,10\n[density]\n", r"section \[density\] repeats.*line 3"),
        ("radii = 6,10\n[density]\n", r"line 1 'radii = 6,10' comes before"),
        ("[density]\nradii = 6,10\nradii six\n", r"line 3 is not 'key = value'.*radii six"),
        ("[density]\nradii = 6,10%\n", r"'radii'.*%"),
    ]
    for i, (text, pattern) in enumerate(cases):
        path = tmp_path / f"{i}.ini"
        path.write_text(text)
        with pytest.raises(cli.ConfigError, match=pattern):
            cli.load_config(str(path), "density")
        assert cli.main(["density", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        out, err = capsys.readouterr()
        assert "overall" not in out and "Traceback" not in err
        assert re.search(pattern, err), (text, err)
    assert not (tmp_path / "out").exists()


def test_density_radii_must_increase_strictly(tmp_path, capsys):
    for radii in ("28,14,6", "6,6,14", "6,14,10"):
        path = write_ini(tmp_path, "d.ini", "density", {"radii": radii})
        assert cli.main(["density", "--config", path, "--out", str(tmp_path / "out")]) == 2
        out, err = capsys.readouterr()
        assert "overall" not in out
        assert re.search(r"\bradii\b.*increasing", err), (radii, err)
    assert not (tmp_path / "out").exists()


def test_huge_and_tiny_values_exit_2_naming_the_key(tmp_path, capsys):
    # float powers that overflow used to escape as OverflowError (exit 1)
    cases = [
        ("frame", {"section_radius": 1e300}, "section_radius"),
        ("frame", {"restriction_radius": 1e100}, "restriction_radius"),
        ("hole", {"section_radius": 1e300}, "section_radius"),
        ("density", {"radii": "6,1e300"}, "radii"),
        # b / a past the floats: the count of centres min(a, b) / 8 apart overflows
        ("density", {"side": "riesz", "lattice_a": 1e-160, "lattice_b": 1e150,
                     "radii": 1e-160, "restriction_radius": 1e-160}, "lattice_a"),
        ("geometry", {"growth_radii": "2,4,8,1e300"}, "growth_radii"),
        ("geometry", {"growth_radii": "2,4,8,1e120",
                      "group": "discrete_heisenberg"}, "growth_radii"),
        ("geometry", {"growth_radii": "2,4,8,1e300", "group": "discrete_heisenberg",
                      "metric": "heisenberg_gauge"}, "growth_radii"),
        # each geometry radius names its own key
        ("geometry", {"folner_count": 10 ** 30}, "folner_count"),
        ("geometry", {"folner_count": 10 ** 400}, "folner_count"),
        # euclidean balls are closed forms, but each Folner set is one ball and one row
        ("geometry", {"group": "euclidean", "folner_count": 10 ** 30}, "folner_count"),
        ("geometry", {"group": "euclidean", "folner_count": 10 ** 9}, "folner_count"),
        ("geometry", {"folner_step": 1e100}, "folner_step"),
        ("geometry", {"folner_k_radius": 1e100}, "folner_k_radius"),
        ("geometry", {"annular_radii": "6,1e300"}, "annular_radii"),
        ("geometry", {"annular_radii": "5e-324,1"}, "annular_radii"),
        # trials x n^2 coefficient entries; 10^30 trials never finished
        ("rep-check", {"trials": 10 ** 30}, "trials"),
        # the power r^alpha in the tail fit
        ("hole", {"alpha": "+0.628e150"}, "alpha"),
        # the T4.3 fit's hypothesis needs alpha > 0: alpha = 0 gave gamma 0
        ("density", {"radii": "6,10,14,28", "fit_exponent": "true", "alpha": 0}, "alpha"),
        # a disk whose pi r^2 rounds to 0 gives K_n or Q zero measure; at
        # q_radius = 1e-162 pi r r is still positive, but r^2 is 0
        ("density", {"radii": 1e-200}, "radii"),
        ("density", {"radii": "1e-200,1,2"}, "radii"),
        ("density", {"q_radius": 1e-170}, "q_radius"),
        ("density", {"q_radius": 1e-162}, "q_radius"),
        # mu(Q) ~ 3e-320 is subnormal: the counting constant C >= 4 / mu(Q)
        # overflows, and an infinite C made every T3.3 right side -inf
        ("density", {"q_radius": 1e-160}, "q_radius"),
        # 4 / mu(Q) ~ 1.3e308 is finite, but B / A ~ 2.4 of the 2 x 1 Riesz
        # bounds takes C past the floats once the bounds are measured
        ("density", {"side": "riesz", "lattice_a": 2, "lattice_b": 1,
                     "q_radius": 1e-154}, "q_radius"),
    ]
    for i, (experiment, body, key) in enumerate(cases):
        path = write_ini(tmp_path, f"{i}.ini", experiment, body)
        assert cli.main([experiment, "--config", path, "--out", str(tmp_path / "out")]) == 2
        out, err = capsys.readouterr()
        assert "overall" not in out
        assert re.search(rf"\b{key}\b", err.split(": ", 1)[1]), (experiment, key, err)
        # one short line: sizes past 10^15, such as the 241-digit column
        # count of the H3 radius 1e120, print as a mantissa and an exponent
        assert len(err.splitlines()) == 1 and len(err) < 300, err
    assert not (tmp_path / "out").exists()


def test_theorem_radius_overflow_exits_2_naming_alpha(tmp_path, capsys):
    # (C0^2 C B/A)^(1/(alpha + delta - 1)) with delta = 1 and alpha = 0.02
    # overflows; its base is measured, so the refusal comes after the bounds,
    # and no report is written
    path = write_ini(tmp_path, "a.ini", "hole", {"alpha": 0.02})
    assert cli.main(["hole", "--config", path, "--out", str(tmp_path / "out")]) == 2
    out, err = capsys.readouterr()
    assert "overall" not in out and "Traceback" not in err
    assert re.search(r"\balpha = 0.02\b", err.split(": ", 1)[1]), err
    assert not (tmp_path / "out").exists()
    # alpha = 0.03 keeps the radius finite
    path = write_ini(tmp_path, "b.ini", "hole", {"alpha": 0.03})
    assert cli.main(["hole", "--config", path, "--out", str(tmp_path / "out")]) == 0


def test_q_radius_budget_is_checked_before_anything_is_allocated(tmp_path, monkeypatch):
    def refuse(*args):
        raise AssertionError("allocated while the config loads")

    monkeypatch.setattr(frames, "_greedy_cover_disk", refuse)
    monkeypatch.setattr(frames, "_disk_candidates", refuse)
    # q_radius = 30 asked for a 26,789 x 411,601 distance matrix (82 GiB)
    cases = [("density", {"q_radius": 30}, "q_radius", "cover"),
             ("density", {"side": "riesz", "lattice_a": 2, "lattice_b": 1,
                          "q_radius": 30}, "q_radius", "cover"),
             ("frame", {"q_radius": 30}, "q_radius", "cover"),
             ("hole", {"r0": 30}, "r0", "cover")]
    for i, (experiment, body, key, what) in enumerate(cases):
        path = write_ini(tmp_path, f"{i}.ini", experiment, body)
        with pytest.raises(cli.ConfigError, match=rf"\b{key}\b.*{what}.*budget"):
            cli.load_config(path, experiment)
    # the pair loop of the exact separation search on a fine lattice
    monkeypatch.setenv(groups.BUDGET_ENV_VAR, "20000")
    fine = write_ini(tmp_path, "fine.ini", "frame", {
        "lattice_a": 0.05, "lattice_b": 0.05, "q_radius": 0.3, "section_radius": 1.1,
        "margin": 0, "restriction_radius": 0.1, "k_radius": 1})
    with pytest.raises(cli.ConfigError, match=r"\bq_radius\b.*pairs.*budget"):
        cli.load_config(fine, "frame")
    monkeypatch.delenv(groups.BUDGET_ENV_VAR)
    # the finite model covers a word ball: no disk to budget
    finite = write_ini(tmp_path, "ff.ini", "frame", {"model": "finite", "q_radius": 30})
    assert cli.load_config(finite, "frame")["q_radius"] == 30
    # frame-bessel's q_radius = 2 on its 0.5 lattice, and every shipped config, load
    bessel = write_ini(tmp_path, "fb.ini", "frame", {
        "lattice_a": 0.5, "lattice_b": 0.5, "section_radius": 16, "restriction_radius": 7,
        "q_radius": 2, "k_radius": 8})
    assert cli.load_config(bessel, "frame")["q_radius"] == 2
    for name in sorted(os.listdir(CONFIG_DIR)):
        parser = configparser.ConfigParser()
        parser.read(os.path.join(CONFIG_DIR, name))
        (experiment,) = parser.sections()
        cli.load_config(os.path.join(CONFIG_DIR, name), experiment)


def test_gram_dump_is_the_diagonalised_gram(tmp_path, monkeypatch):
    # riesz_bounds diagonalises the 49 x 49 Gram of the radius-2 disk of
    # 0.5Z^2 with m (m - 1) / 2 entry calls, not m^2: the lower triangle
    # conjugates the upper one; the frame run reports its A
    calls = []
    entry = frames.gabor_gram_entry

    def spy(mu, nu):
        calls.append(1)
        return entry(mu, nu)

    monkeypatch.setattr(frames, "gabor_gram_entry", spy)
    rb = frames.riesz_bounds(frames.lattice(0.5, 0.5), restriction_radius=2)
    m = len(rb.spectrum)
    assert m == 49
    assert len(calls) == m * (m - 1) // 2
    path = write_ini(tmp_path, "fg.ini", "frame",
                     {"model": "gaussian", "lattice_a": 0.5, "lattice_b": 0.5,
                      "restriction_radius": 2})
    report = cli.run_experiment("frame", path, str(tmp_path / "out"))
    record = next(r for r in report.records if r["name"] == "riesz_bounds")
    assert rb.spectrum[0] == pytest.approx(record["A"], abs=1e-12)


def _mutations(key, typ, default, rng):
    """INI lines that mutate one key: wrong types, huge and tiny values
    (fixed and seeded), duplicates, and reordered lists."""
    wrong = {"int": ["abc", "2.5", "1,2"], "float": ["abc", "1,2", "--1"],
             "floats": ["abc", "1;2", "1,,x"], "bool": ["maybe", "2"],
             "str": ["bogus", "1e300"]}[typ]
    values = list(wrong)
    seeded = [f"{rng.choice('+-')}{rng.random():.3f}e{rng.randint(-330, 310)}"
              for _ in range(4)]
    if typ in ("int", "float"):
        values += ["1e300", "-1e300", "1e100", "5e-324", "1" + "0" * 30, *seeded]
    if typ == "floats":
        values += ["6,1e300", "1e300", "5e-324,1", "28,14,6", "6,6,14", "6,14,10",
                   ",".join(seeded), ",".join(sorted(seeded, key=float))]
    out = [[f"{key} = {v}"] for v in values]
    out.append([f"{key} = {default}", f"{key} = {default}"])
    return out


# configs that passed validation and then exited 2 naming no key, each with
# the key it must name; they set these lines on the schema defaults
SWEEP_REFUSED = {"geometry": [
    ("growth_radii", ["group = discrete_heisenberg", "growth_radii = 4,5,6,60"]),
    ("folner_k_radius", ["folner_k_radius = 100"])]}


@pytest.mark.parametrize("experiment, base", SWEEP_BASES)
def test_seeded_ini_mutation_sweep_never_raises(tmp_path, capsys, experiment, base):
    # every mutation of every key exits 0, 1 or 2, never with a traceback,
    # and an exit 2 names the mutated key; the refused configs exit 2
    rng = random.Random(14)
    cases = [(key, base, lines, (0, 1, 2))
             for key, (typ, default, *_) in cli._SCHEMAS[experiment].items()
             for lines in _mutations(key, typ, default, rng)]
    cases += [(key, {}, lines, (2,)) for key, lines in SWEEP_REFUSED.get(experiment, ())]
    for i, (key, keys, lines, codes) in enumerate(cases):
        body = [f"{k} = {v}" for k, v in keys.items() if k != key]
        path = tmp_path / f"{i}.ini"
        path.write_text("\n".join([f"[{experiment}]", *body, *lines]) + "\n")
        code = cli.main([experiment, "--config", str(path), "--out", str(tmp_path / "out")])
        out, err = capsys.readouterr()
        assert code in codes, (key, lines, code)
        if code == 2:
            assert re.search(rf"\b{key}\b", err), (key, lines, err)


def test_geometry_ball_bounds_hold():
    # the budget check reads the exact size of every discrete ball, on Z^2
    # and on H3 under its word metric and its gauge, from a second metric
    h3 = groups.discrete_heisenberg()
    cases = ((groups.word_metric, groups.integer_lattice(2), 30),
             (groups.word_metric, h3, 16),
             (groups.heisenberg_gauge_metric, h3, 7))
    for make, group, top in cases:
        metric, checked = make(group), make(group)
        for r in np.arange(0.0, top + 0.5, 0.5):
            size = len(groups.ball(metric, float(r)).keys)
            assert size == groups.ball_measure(checked, float(r)), (metric.kind, r)
    # (2m^2 + 2m + 1)(2 floor(m^2 / 4) + 1) = 347,089 bounded it before
    assert groups.ball_measure(groups.word_metric(h3), 24.0) == 141_225


def test_h3_word_ball_of_radius_50_loads_within_the_budget(tmp_path, monkeypatch, capsys):
    # its 2,671,177 elements fit the default budget of 5,000,000, where the
    # bound above gave ~6.38e6 and refused the config
    path = write_ini(tmp_path, "h3.ini", "geometry",
                     {"group": "discrete_heisenberg", "growth_radii": "10,20,30,50"})
    assert cli.main(["geometry", "--config", path, "--out", str(tmp_path / "out")]) == 0
    capsys.readouterr()
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    fit = next(r for r in report["records"] if r["name"] == "growth_fit")
    assert fit["volumes"][-1] == 2_671_177
    # one element less refuses it before the run's first stage, naming the
    # key and the size
    monkeypatch.setenv(groups.BUDGET_ENV_VAR, "2671176")
    assert cli.main(["geometry", "--config", path, "--out", str(tmp_path / "refused")]) == 2
    out, err = capsys.readouterr()
    assert re.match(r"^growth_radii = 10,20,30,50: word ball of radius 50 has 2671177 "
                    r"elements", err.removeprefix("config error: ")), err
    assert "overall" not in out and not (tmp_path / "refused").exists()


def test_gauge_ball_of_radius_40_loads_within_the_budget(tmp_path, monkeypatch, capsys):
    # its exact 3,157,537 elements fit the default budget, where the
    # candidate estimate gave ~5.26e6 and refused the config
    path = write_ini(tmp_path, "gauge.ini", "geometry",
                     {"group": "discrete_heisenberg", "metric": "heisenberg_gauge",
                      "growth_radii": "4,5,6,40", "annular_radii": "4,6,8,10"})
    assert cli.main(["geometry", "--config", path, "--out", str(tmp_path / "out")]) == 0
    capsys.readouterr()
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    fit = next(r for r in report["records"] if r["name"] == "growth_fit")
    assert fit["volumes"][-1] == 3_157_537
    monkeypatch.setenv(groups.BUDGET_ENV_VAR, "3157536")
    assert cli.main(["geometry", "--config", path, "--out", str(tmp_path / "refused")]) == 2
    out, err = capsys.readouterr()
    assert re.match(r"^growth_radii = 4,5,6,40: gauge ball of radius 40 has 3157537 "
                    r"elements", err.removeprefix("config error: ")), err
    assert "overall" not in out and not (tmp_path / "refused").exists()


def test_euclidean_geometry_budgets_only_closed_form_overflow(tmp_path, capsys):
    # euclidean balls, growth fits and Folner ratios are closed forms: no
    # lattice points are enumerated, so only an overflowing measure exits 2
    path = write_ini(tmp_path, "big.ini", "geometry",
                     {"group": "euclidean", "growth_radii": "4,5,6,2000"})
    assert cli.main(["geometry", "--config", path, "--out", str(tmp_path / "out")]) == 0
    capsys.readouterr()
    cases = [({"growth_radii": "4,5,6,1e160"}, "growth_radii"),
             ({"annular_radii": "2,1e160"}, "annular_radii"),
             # r_n and r_K are finite alone, r_n + r_K squared is not
             ({"folner_count": 1, "folner_step": 5e153, "folner_k_radius": 5e153},
              "folner_k_radius")]
    for i, (body, key) in enumerate(cases):
        path = write_ini(tmp_path, f"{i}.ini", "geometry", {"group": "euclidean", **body})
        assert cli.main(["geometry", "--config", path, "--out", str(tmp_path / "o")]) == 2
        out, err = capsys.readouterr()
        assert err.startswith(f"config error: {key} = ") and "overflows" in err, err
        assert "Traceback" not in err and "overall" not in out
