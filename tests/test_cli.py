import dataclasses
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from sphtrans import acceptance, cli, transform
from sphtrans.acceptance import CriterionOutcome
from sphtrans.cli import (RunConfig, Table, _emit, build_parser, config_from_args, load_config,
                          main, validate_config)
from sphtrans.errors import ConfigError


def run_cli(args):
    return main(args)


@pytest.mark.parametrize("grid, path", [("0:1:2", "grid.count"), ("1:0:5", "grid")])
def test_a_phi_grid_of_two_points_or_with_min_above_max_exits_2_naming_it(grid, path, capsys):
    assert run_cli(["phi", "--grid", grid]) == 2
    assert capsys.readouterr().err.startswith(f"error in cli.config: {path}: ")


def test_a_radial_grid_below_0_exits_2_naming_grid_min(capsys):
    assert run_cli(["phi", "--preset", "H3", "--grid=-1:12:481"]) == 2
    assert capsys.readouterr().err.startswith("error in cli.config: grid.min: ")


def test_presets_listing(capsys):
    assert run_cli(["presets"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().split("\n")
    assert lines[0].startswith("name,m_alpha,m_2alpha,rho")
    assert len(lines) == 6  # header + 5 presets
    for name in ("SL2R", "SL2C", "H3", "H4", "CH2"):
        assert any(line.startswith(name + ",") for line in lines[1:])


def test_roundtrip_json_report(tmp_path):
    out = tmp_path / "rt.json"
    rc = run_cli([
        "roundtrip", "--preset", "SL2R", "--symbol", "gauss",
        "--grid=-4:4:17", "--out", str(out),
    ])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["preset"] == "SL2R"
    assert doc["operation"] == "roundtrip"
    assert doc["max_error"] <= 1e-6
    assert len(doc["per_sample"]) == 17


def test_even_grid_count_rejected(capsys):
    rc = run_cli(["transform", "--preset", "SL2R", "--grid=-6:6:10"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "grid.count" in err


def test_asymmetric_spectral_grid_rejected():
    rc = run_cli(["cfun", "--preset", "SL2R", "--grid=-2:6:9"])
    assert rc == 2


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"preset": "SL2R", "quadrature": {"rell_tol": 1e-9}}))
    rc = run_cli(["presets", "--config", str(cfg)])
    assert rc == 2
    assert "quadrature.rell_tol" in capsys.readouterr().err


def test_the_subdivision_budget_is_not_a_config_field(tmp_path, capsys):
    # it is specfun._MAX_SUBDIVISIONS
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"quadrature": {"max_subdivisions": 4096}}))
    assert run_cli(["plancherel", "--config", str(cfg)]) == 2
    assert "unknown config field 'quadrature.max_subdivisions'" in capsys.readouterr().err


def test_unknown_preset_rejected(capsys):
    rc = run_cli(["phi", "--preset", "NOPE"])
    assert rc == 2
    assert "preset" in capsys.readouterr().err


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "preset": "H3",
        "grid": {"min": 0.0, "max": 2.0, "count": 3},
        "lam": 2.0,
    }))
    rc = run_cli(["phi", "--config", str(cfg), "--preset", "SL2R"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("t,re_phi,im_phi")
    # value at t = 0 is the normalization 1
    first = out.strip().split("\n")[1].split(",")
    assert float(first[1]) == 1.0


def test_cfun_csv_columns(capsys):
    rc = run_cli(["cfun", "--preset", "H3", "--grid=-1:1:5"])
    assert rc == 0
    out = capsys.readouterr().out
    lines = out.strip().split("\n")
    assert lines[0] == "lambda,re_c,im_c,density"
    # H3 density at lam=1 is lam^2 up to nothing: |c(1)|^-2 = 1
    row = dict(zip(lines[0].split(","), lines[-1].split(",")))
    assert float(row["lambda"]) == 1.0
    np.testing.assert_allclose(float(row["density"]), 1.0, rtol=1e-10)


def test_cfun_makes_one_array_call_of_each_function(monkeypatch, capsys):
    calls = {"c_function": 0, "plancherel_density": 0}

    def counted(name):
        original = getattr(cli, name)

        def call(G, lam):
            calls[name] += 1
            return original(G, lam)
        return call

    for name in calls:
        monkeypatch.setattr(cli, name, counted(name))
    assert run_cli(["cfun", "--preset", "SL2R"]) == 0
    assert calls == {"c_function": 1, "plancherel_density": 1}
    lines = capsys.readouterr().out.strip().split("\n")
    assert len(lines) == 482
    assert lines[241] == "0.0,nan,nan,0.0"  # the pole row: no c, density 0


@pytest.mark.parametrize("subcommand, profile, named", [
    ("transform", {"family": "gaussian", "width": 0}, "width = 0.0"),
    ("transform", {"family": "gaussian", "width": math.nan}, "width = nan"),
    ("transform", {"family": "gaussian", "width": 1e-300}, "width = 1e-300"),
    ("transform", {"family": "gaussian", "scale": math.inf}, "scale = inf"),
    ("transform", {"family": "cosh", "power": 1}, "power = 1.0"),
    ("transform", {"family": "cosh", "power": 1e300}, "power = 1e+300"),
    ("seminorm", {"family": "xi_poly", "p": 0}, "p = 0"),
])
def test_bad_profile_parameters_exit_2_naming_them(subcommand, profile, named, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"profile": profile}))  # json writes NaN and Infinity
    assert run_cli([subcommand, "--preset", "H3", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert named in err
    assert "Traceback" not in err


def test_invert_runs(capsys):
    rc = run_cli(["invert", "--preset", "SL2R", "--symbol", "wide", "--grid", "0:5:6"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("t,re_psi,im_psi")
    assert len(out.strip().split("\n")) == 7


def test_deterministic_csv_bytes(tmp_path):
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    for p in (p1, p2):
        assert run_cli(["cfun", "--preset", "SL2R", "--grid=-3:3:13", "--out", str(p)]) == 0
    assert p1.read_bytes() == p2.read_bytes()


def test_atomic_write_leaves_no_temp(tmp_path):
    out = tmp_path / "x.csv"
    assert run_cli(["phi", "--preset", "SL2R", "--grid", "0:1:3", "--out", str(out)]) == 0
    assert out.exists()
    leftovers = [n for n in os.listdir(tmp_path) if n.startswith(".sphtrans-")]
    assert leftovers == []


def test_failed_rename_exits_2_and_leaves_no_temp(tmp_path, monkeypatch, capsys):
    def refuse(src, dst):
        raise OSError(f"cannot rename {src!r}")

    monkeypatch.setattr(cli.os, "replace", refuse)
    out = tmp_path / "x.csv"
    assert run_cli(["phi", "--preset", "SL2R", "--grid", "0:1:3", "--out", str(out)]) == 2
    assert "cannot rename" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


def test_accept_outcome_rows_serialize(tmp_path):
    # criteria build their verdicts from numpy comparisons, as A1 does
    passed = True
    passed &= np.float64(1e-13) <= 1e-6
    row = CriterionOutcome("A1 inversion (SL2R)", passed, np.float64(1e-13), 1e-6, 0.5)
    assert type(row.passed) is bool
    out = tmp_path / "accept.json"
    _emit({"operation": "accept", "outcomes": [dataclasses.asdict(row)]}, str(out))
    doc = json.loads(out.read_text())
    assert doc["outcomes"] == [{"name": "A1 inversion (SL2R)", "passed": True, "measured": 1e-13,
                                "tolerance": 1e-6, "runtime": 0.5, "detail": ""}]


def test_plancherel_report(tmp_path):
    out = tmp_path / "p.json"
    rc = run_cli([
        "plancherel", "--preset", "SL2R", "--symbol", "gauss", "--out", str(out),
    ])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["operation"] == "plancherel"
    assert doc["max_error"] <= 1e-5


def test_seminorm_report(tmp_path):
    out = tmp_path / "s.json"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "profile": {"family": "gaussian", "width": 1.0},
        "r_values": [0.0, 2.0],
        "k_values": [0, 1],
    }))
    rc = run_cli(["seminorm", "--preset", "SL2R", "--config", str(cfg), "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert len(doc["reports"]) == 4
    assert all(np.isfinite(r["value"]) for r in doc["reports"])


def test_seminorm_builds_each_derivative_block_once(monkeypatch, fresh_phi_cache, tmp_path):
    # the packet's envelope check, then k = 0, 1 and 2 at r = 0..3 on one t grid
    calls = []
    for name in ("phi", "phi_d1", "phi_d2"):
        def counted(G, lam, t, name=name, original=getattr(transform, name)):
            calls.append(name)
            return original(G, lam, t)
        monkeypatch.setattr(transform, name, counted)
    out = tmp_path / "s.json"
    assert run_cli(["seminorm", "--preset", "H3", "--profile", "wave_packet",
                    "--symbol", "gauss", "--out", str(out)]) == 0
    assert calls == ["phi", "phi", "phi_d1", "phi_d2"]
    reports = json.loads(out.read_text())["reports"]
    assert [(rep["r"], rep["deriv_order"]) for rep in reports] == [
        (r, k) for r in (0.0, 1.0, 2.0, 3.0) for k in (0, 1, 2)]


def test_membership_subcommand(tmp_path):
    out = tmp_path / "m.json"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"profile": {"family": "counterexample", "symbol": "odd"}}))
    rc = run_cli(["membership", "--preset", "SL2R", "--config", str(cfg), "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["passed"] is False
    assert doc["criteria"]["weyl"]["passed"] is False


def test_membership_on_three_points_exits_2_naming_the_count(tmp_path, capsys):
    rc = run_cli(["membership", "--preset", "H3", "--grid=-1:1:3",
                  "--out", str(tmp_path / "m.json")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "need 5 grid points; the grid has 3" in err and "Traceback" not in err
    assert not (tmp_path / "m.json").exists()


def test_expansion_subcommand(tmp_path):
    out = tmp_path / "e.json"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "profile": {"symbol": "flat4"},
        "lams": [1.0],
        "eps_ladder": [0.2, 0.1],
    }))
    rc = run_cli(["expansion", "--preset", "SL2R", "--config", str(cfg), "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    errors = [rec["error"] for rec in doc["per_sample"]]
    assert errors[0] > errors[1]
    assert errors[1] < 5e-3


def test_accuracy_failures_exit_3(monkeypatch):
    from sphtrans import cli
    from sphtrans.errors import AccuracyError

    def boom(cfg):
        raise AccuracyError("forced accuracy failure", err_est=1.0)

    monkeypatch.setitem(cli._COMMANDS, "transform", cli._COMMANDS["transform"]._replace(run=boom))
    assert run_cli(["transform", "--preset", "SL2R"]) == 3


def test_load_config_strictness():
    with pytest.raises(ConfigError) as err:
        load_config({"grids": {}})
    assert err.value.path == "grids"
    cfg = load_config({"preset": "H4"})
    assert cfg.preset == "H4"
    # every default lives in the dataclasses; ints load into float fields as floats
    assert load_config({}) == RunConfig()
    cfg = load_config({"grid": {"min": 0, "count": 5}, "profile": {"power": 2}, "lams": [1]})
    assert (cfg.grid.min, cfg.grid.max, cfg.grid.count) == (0.0, RunConfig().grid.max, 5)
    assert type(cfg.grid.min) is float and type(cfg.profile.power) is float
    assert cfg.lams == (1.0,) and cfg.quadrature == RunConfig().quadrature


def test_validate_config_catches_bad_family(capsys):
    cfg = RunConfig()
    cfg.profile.family = "mystery"
    with pytest.raises(ConfigError):
        validate_config(cfg, "transform")
    # a counterexample is a spectral function: only membership takes one
    cfg.profile.family, cfg.profile.symbol = "counterexample", "odd"
    validate_config(cfg, "membership")
    for subcommand in ("transform", "seminorm"):
        with pytest.raises(ConfigError) as err:
            validate_config(cfg, subcommand)
        assert err.value.path == "profile.family"
    # named before the tolerance, which transform reads for every radial family
    assert run_cli(["transform", "--profile=counterexample", "--symbol=odd", "--tol=1e-9"]) == 2
    assert "error in cli.config: profile.family" in capsys.readouterr().err


@pytest.mark.parametrize("subcommand", ["transform", "membership"])
def test_xi_poly_is_rejected_before_anything_is_built(subcommand, monkeypatch, capsys):
    # its decay e^(-rho t) (1+t)^-2 is too weak for the forward transform
    def never(*args):
        raise AssertionError("the profile was built")

    monkeypatch.setitem(cli._FAMILIES, "xi_poly", cli._FAMILIES["xi_poly"]._replace(build=never))
    cfg = RunConfig()
    cfg.profile.family = "xi_poly"
    with pytest.raises(ConfigError, match=f"{subcommand} subcommand does not take 'xi_poly'") as err:
        validate_config(cfg, subcommand)
    assert err.value.path == "profile.family"
    assert run_cli([subcommand, "--preset=H3", "--profile=xi_poly", "--grid=-2:2:5"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error in cli.config: profile.family: the {subcommand} subcommand")
    validate_config(cfg, "seminorm")


def test_format_option_is_gone(tmp_path, capsys):
    # each subcommand writes one form; a request for another is an error, not ignored
    with pytest.raises(SystemExit) as exit_:
        run_cli(["transform", "--format", "json"])
    assert exit_.value.code == 2
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"output": {"format": "json"}}))
    assert run_cli(["transform", "--config", str(cfg)]) == 2
    assert "output.format" in capsys.readouterr().err


def test_main_writes_what_the_runner_returns(tmp_path, monkeypatch):
    from sphtrans import cli

    artifacts = {"phi": Table(["t", "x"], [[0.5, 1], [1.0, float("nan")]]),
                 "seminorm": {"reports": [np.float64(0.25)]}}
    for name, artifact in artifacts.items():
        monkeypatch.setitem(cli._COMMANDS, name,
                            cli._COMMANDS[name]._replace(run=lambda cfg, a=artifact: a))
    csv, js = tmp_path / "a.csv", tmp_path / "a.json"
    assert run_cli(["phi", "--out", str(csv)]) == 0
    assert csv.read_text() == "t,x\n0.5,1\n1.0,nan\n"
    assert run_cli(["seminorm", "--preset", "H3", "--out", str(js)]) == 0
    doc = json.loads(js.read_text())
    assert list(doc) == ["preset", "operation", "reports"]
    assert doc == {"preset": "H3", "operation": "seminorm", "reports": [0.25]}


def test_cli_start_up_loads_no_scipy(tmp_path):
    # no module of the package imports scipy, and the A7 oracle's numpy.polynomial is
    # imported only when that oracle runs; nor does the import build the
    # radial rule, which the first forward transform does; and the Gauss-Legendre rules
    # are sphtrans' own, so a round trip does not import numpy.polynomial either
    code = (
        "import sys, sphtrans, sphtrans.cli\n"
        "loaded = lambda: sorted(m for m in sys.modules\n"
        "                        if m.split('.')[0] == 'scipy' or m.startswith('numpy.polynomial'))\n"
        "print(loaded(), sphtrans.specfun.gauss_kronrod_rule.cache_info().misses)\n"
        f"argv = ['cfun', '--preset', 'SL2R', '--grid=-2:2:5', '--out', {str(tmp_path / 'c.csv')!r}]\n"
        "sphtrans.cli.main(argv)\n"
        "print(loaded())\n"
        f"sphtrans.cli.main(['roundtrip', '--preset', 'H3', '--out', {str(tmp_path / 'r.json')!r}])\n"
        "print(loaded())\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}, check=True)
    assert out.stdout.split("\n") == ["[] 0", "[]", "[]", ""]
    assert (tmp_path / "c.csv").read_text().count("\n") == 6
    assert json.loads((tmp_path / "r.json").read_text())["preset"] == "H3"


def test_accept_needs_no_scipy(tmp_path):
    # scipy is a test dependency only: with its import blocked, every acceptance
    # criterion, the A7 oracle's ODE among them, still runs and passes
    code = ("import sys\n"
            "sys.modules['scipy'] = None\n"
            "import sphtrans.cli\n"
            f"sys.exit(sphtrans.cli.main(['accept', '--out', {str(tmp_path / 'a.json')!r}]))\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "10/10 acceptance criteria passed"
    assert all(o["passed"] for o in json.loads((tmp_path / "a.json").read_text())["outcomes"])


# ---------------------------------------------------------------------------
# one strict loader: every malformed value is a ConfigError naming its path
# ---------------------------------------------------------------------------

MALFORMED = [
    ({"grid": 5}, "grid"),
    ({"lam": "abc"}, "lam"),
    ({"lams": 3}, "lams"),
    ({"lams": [0.5, "x"]}, "lams[1]"),
    ({"profile": {"p": "x"}}, "profile.p"),
    ({"grid": {"count": 2.5}}, "grid.count"),
    ({"k_values": [1, True]}, "k_values[1]"),
    ({"output": {"path": 7}}, "output.path"),
    ({"quadrature": {"rel_tol": 1e-20}}, "quadrature"),
]


@pytest.mark.parametrize("doc, path", MALFORMED)
def test_malformed_config_names_its_path(doc, path, tmp_path, capsys):
    with pytest.raises(ConfigError) as err:
        load_config(doc)
    assert err.value.path == path
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    assert run_cli(["presets", "--config", str(cfg)]) == 2
    assert f"error in cli.config: {path}" in capsys.readouterr().err


def test_flags_load_at_their_config_paths(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"quadrature": {"abs_tol": 1e-11},
                               "profile": {"family": "wave_packet"}}))
    args = build_parser().parse_args([
        "transform", "--config", str(cfg), "--tol", "1e-9", "--grid=-4:4:9",
        "--symbol", "wide", "--out", str(tmp_path / "x.csv"),
    ])
    run = config_from_args(args)
    assert (run.quadrature.rel_tol, run.quadrature.abs_tol) == (1e-9, 1e-11)
    assert (run.grid.min, run.grid.max, run.grid.count) == (-4.0, 4.0, 9)
    assert run.output.path == str(tmp_path / "x.csv")
    assert (run.profile.family, run.profile.symbol) == ("wave_packet", "wide")
    # --symbol does not override the file's family: a cosh profile reads no symbol
    cfg.write_text(json.dumps({"profile": {"family": "cosh"}}))
    with pytest.raises(ConfigError) as err:
        config_from_args(args)
    assert err.value.path == "profile.symbol"


@pytest.mark.parametrize("flag, path", [
    ("--grid=a:1:3", "grid.min"),
    ("--grid=-1:1:2.5", "grid.count"),
    ("--grid=0:1", "grid"),
    ("--grid=0:inf:5", "grid"),
    ("--tol=1e-20", "quadrature: rel_tol"),
    ("--tol=nan", "quadrature: rel_tol"),
])
def test_malformed_flag_names_its_path(flag, path, capsys):
    assert run_cli(["phi", flag]) == 2
    assert f"error in cli.config: {path}" in capsys.readouterr().err


def test_missing_config_file_names_config(tmp_path, capsys):
    assert run_cli(["presets", "--config", str(tmp_path / "absent.json")]) == 2
    assert "error in cli.config: config:" in capsys.readouterr().err


def test_out_into_missing_directory_fails_before_computing(tmp_path, monkeypatch, capsys):
    from sphtrans import cli

    def never(cfg):
        raise AssertionError("the subcommand ran")

    monkeypatch.setitem(cli._COMMANDS, "transform", cli._COMMANDS["transform"]._replace(run=never))
    rc = run_cli(["transform", "--out", str(tmp_path / "missing" / "t.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "error in cli.config: output.path" in err
    assert ".sphtrans-" not in err


# ---------------------------------------------------------------------------
# a subcommand accepts only the config paths it reads
# ---------------------------------------------------------------------------

GRID = {"grid.min", "grid.max", "grid.count"}
TOLS = {"quadrature.rel_tol", "quadrature.abs_tol"}
FAMILY_FIELDS = {"gaussian": {"width", "scale"}, "cosh": {"power"}, "xi_poly": {"p"},
                 "wave_packet": {"symbol"}, "counterexample": {"symbol"}}
# the subcommands each family can be given: a counterexample is spectral, and
# xi_poly decays too weakly to transform
RADIAL = {"transform", "seminorm", "membership"}
FAMILY_SUBCOMMANDS = {"gaussian": RADIAL, "cosh": RADIAL, "xi_poly": {"seminorm"},
                      "wave_packet": RADIAL, "counterexample": {"membership"}}


def expected_reads(subcommand, family):
    """The leaves each subcommand reads besides output.path, by the runners' code."""
    profile = {"profile.family"} | {f"profile.{f}" for f in FAMILY_FIELDS[family]}
    return {
        "presets": set(),
        "phi": {"preset", "lam"} | GRID,
        "cfun": {"preset"} | GRID,
        "transform": {"preset"} | GRID | TOLS | profile,
        "invert": {"preset", "profile.symbol"} | GRID,
        "plancherel": {"preset", "profile.symbol", "profile.symbol2"} | TOLS,
        "expansion": {"preset", "profile.symbol", "lams", "eps_ladder"} | TOLS,
        "seminorm": {"preset", "r_values", "k_values"} | profile,
        "membership": {"preset"} | GRID | profile | (set() if family == "counterexample" else TOLS),
        "roundtrip": {"preset", "profile.symbol"} | GRID | TOLS,
        "accept": set(),
    }[subcommand]


def leaves(obj, prefix=""):
    """(dotted path, JSON value) of every leaf of a config dataclass."""
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if dataclasses.is_dataclass(value):
            yield from leaves(value, f"{prefix}{f.name}.")
        else:
            yield prefix + f.name, list(value) if isinstance(value, tuple) else value


def declared(subcommand, cfg):
    """The leaves ``cli._reads`` declares for ``subcommand`` under ``cfg``, without output.path."""
    reads = cli._reads(subcommand, cfg)
    return {path for path, _ in leaves(cfg) if path != "output.path" and
            any(path == read or path.startswith(read + ".") for read in reads)}


def profile_sections(subcommand):
    """The profile section of each family a subcommand can be given, or none."""
    if "profile.family" not in expected_reads(subcommand, "wave_packet"):
        return [("wave_packet", {})]
    families = [f for f in FAMILY_FIELDS if subcommand in FAMILY_SUBCOMMANDS[f]]
    return [(f, {"family": f, **({"symbol": "odd"} if f == "counterexample" else {})})
            for f in families]


@pytest.mark.parametrize("subcommand", sorted(cli._COMMANDS))
def test_every_path_and_flag_is_read_or_rejected(subcommand, tmp_path, monkeypatch, capsys):
    for name, command in cli._COMMANDS.items():  # nothing is computed
        monkeypatch.setitem(cli._COMMANDS, name, command._replace(run=lambda cfg: Table([], [])))
    defaults = config_from_args(build_parser().parse_args([subcommand]))
    radial = cli._COMMANDS[subcommand].radial
    assert defaults.grid == (cli.GridSpec(0.0, 12.0, 481) if radial else cli.GridSpec())
    g = defaults.grid
    # each flag, with the first path it sets
    flags = [("--preset=H3", "preset"), ("--lam=2.5", "lam"),
             (f"--grid={g.min}:{g.max}:{g.count}", "grid.min"),
             ("--tol=1e-9", "quadrature.rel_tol"), ("--symbol=gauss", "profile.symbol"),
             ("--profile=wave_packet", "profile.family"),
             (f"--out={tmp_path / 'out'}", "output.path")]
    doc_path = tmp_path / "cfg.json"
    for family, profile in profile_sections(subcommand):
        reads = expected_reads(subcommand, family)
        cfg = load_config({"profile": profile})
        assert declared(subcommand, cfg) == reads
        cases = []
        for path, value in leaves(defaults):
            section, _, key = path.partition(".")
            if section == "profile" and profile:
                value = profile.get(key, value)
            cases.append((path, [], {section: {key: value}} if key else {path: value}))
        if family == "wave_packet":
            cases += [(path, [flag], {}) for flag, path in flags]
        for path, argv, doc in cases:
            if profile:
                doc = {**doc, "profile": {**profile, **doc.get("profile", {})}}
            doc_path.write_text(json.dumps(doc))
            rc = run_cli([subcommand, f"--config={doc_path}", *argv])
            err = capsys.readouterr().err
            if path in reads or path == "output.path":
                assert rc == 0, (family, path, argv, err)
            else:
                assert rc == 2, (family, path, argv)
                assert f"error in cli.config: {path}: the {subcommand} subcommand" in err


def recording(obj, log, prefix=""):
    """A copy of config dataclass ``obj`` that logs each field read at its dotted path."""
    names = {f.name for f in dataclasses.fields(obj)}

    class Recording(type(obj)):
        def __getattribute__(self, name):
            if name in names:
                log.add(prefix + name)
            return object.__getattribute__(self, name)

    copy = object.__new__(Recording)
    for name in names:
        value = getattr(obj, name)
        if dataclasses.is_dataclass(value):
            value = recording(value, log, f"{prefix}{name}.")
        object.__setattr__(copy, name, value)
    return copy


def test_each_runner_reads_every_path_it_declares(monkeypatch, capsys):
    monkeypatch.setattr(acceptance, "run_all", lambda: [])
    for subcommand, command in cli._COMMANDS.items():
        argv = [subcommand]
        if "preset" in command.reads:
            argv.append("--preset=H3")
        if "grid" in command.reads:  # small grids and ladders keep this quick
            argv.append("--grid=0:2:5" if command.radial else "--grid=-2:2:5")
        cfg = config_from_args(build_parser().parse_args(argv))
        if subcommand == "seminorm":
            cfg.r_values, cfg.k_values = (1.0,), (2,)
        if subcommand == "expansion":
            cfg.lams, cfg.eps_ladder = (1.0,), (0.4,)
        log = set()
        command.run(recording(cfg, log))
        reads = declared(subcommand, cfg)
        assert reads == expected_reads(subcommand, cfg.profile.family)
        assert reads <= log, (subcommand, reads - log)
