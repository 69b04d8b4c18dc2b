"""Command-line interface: config parsing and validation, deterministic
report emission, exit codes, console summary lines, and audit-matrix dumps."""

import json
import os
import re

import pytest

from coherentlab import cli, reporting

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
    assert cfg["window"] == "random_unit"


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
    n_range = write_ini(tmp_path, "f.ini", "rep-check", {"n": 128})
    with pytest.raises(cli.ConfigError, match="n must be"):
        cli.load_config(n_range, "rep-check")
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
    expo = write_ini(tmp_path, "c.ini", "hole", {"alpha": 0.3, "delta": 0.5})
    with pytest.raises(cli.ConfigError, match="alpha"):
        cli.load_config(expo, "hole")
    huge = write_ini(tmp_path, "d.ini", "density",
                     {"radii": "6,10,4000", "lattice_a": 0.5, "lattice_b": 0.5})
    with pytest.raises(cli.ConfigError, match="budget"):
        cli.load_config(huge, "density")


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


def test_seed_override_lands_in_the_report(tmp_path):
    rc = write_ini(tmp_path, "rc.ini", "rep-check", {"n": 6, "trials": 3})
    report = cli.run_experiment("rep-check", rc, str(tmp_path / "out"), seed=99)
    assert report.config["seed"] == 99
    data = json.loads((tmp_path / "out" / "report.json").read_text())
    assert data["config"]["seed"] == 99
    assert data["experiment"] == "rep-check"
    assert data["overall_pass"] is True


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
    finite = write_ini(tmp_path, "ff.ini", "frame",
                       {"model": "finite", "n": 6, "subset": "full",
                        "dump_matrices": "true"})
    assert cli.main(["frame", "--config", finite,
                     "--out", str(tmp_path / "fin")]) == 0
    assert (tmp_path / "fin" / "synthesis.csv").exists()
    out = capsys.readouterr().out
    for stage in ("bounds", "dual", "bessel", "amalgam"):
        assert f"time[{stage}]" in out
    assert "timings" not in json.loads((tmp_path / "fin" / "report.json").read_text())
    gaussian = write_ini(tmp_path, "fg.ini", "frame",
                         {"model": "gaussian", "lattice_a": 0.5,
                          "lattice_b": 0.5, "restriction_radius": 2,
                          "dump_matrices": "true"})
    assert cli.main(["frame", "--config", gaussian,
                     "--out", str(tmp_path / "gau")]) == 0
    gram = (tmp_path / "gau" / "gram.csv").read_text().splitlines()
    assert gram[0] == "row,col,real,imag"
    assert len(gram) > 1


def test_run_report_overall_pass_ignores_diagnostics():
    rep = cli.RunReport(experiment="density", config={}, records=[
        {"name": "a", "passed": True},
        {"name": "b", "passed": False, "diagnostic": True},
        {"name": "c"},
    ])
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
    ("geometry", {"growth_radii": "1,2,3,4", "folner_count": 1, "folner_step": 2,
                  "annular_radii": "2,4", "annular_fracs": "0.5"}),
    ("rep-check", {"n": 4, "trials": 2}),
    ("frame", {"model": "gaussian", "lattice_a": 1.0, "lattice_b": 1.0,
               "section_radius": 6, "restriction_radius": 2, "k_radius": 2}),
    ("frame", {"model": "finite", "n": 4, "q_radius": 1, "k_radius": 1}),
    ("density", {"side": "frame", "radii": "2,3", "section_radius": 6}),
    ("density", {"side": "riesz", "lattice_a": 2.0, "lattice_b": 1.0, "radii": "2,3",
                 "restriction_radius": 2}),
    ("hole", {"hole_radii": "0,1", "section_radius": 6, "calibration_radius": 2}),
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
                     {**SWEEP_BASES[4][1], "lattice_a": 1.0, "lattice_b": 1.0,
                      "margin": 0})
    assert cli.main(["density", "--config", path, "--out", str(tmp_path / "out")]) == 2
    assert "lattice_a" in capsys.readouterr().err
