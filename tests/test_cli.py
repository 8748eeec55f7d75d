import inspect
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jdisk import cli
from jdisk.brody import RescalingReport
from jdisk.cli import main, run
from jdisk.errors import ConfigError
from jdisk.kobayashi import BoundProbe, BoundReport


def strip_timestamp(report: dict) -> str:
    trimmed = {k: v for k, v in report.items() if k != "timestamp"}
    return json.dumps(trimmed, indent=2)


def test_validate_standard_passes():
    code, report = run({"command": "validate",
                        "structure": {"name": "standard", "n": 1},
                        "params": {"samples": 200}})
    assert code == 0
    assert report["results"]["passed"] is True
    assert report["results"]["max_residual"] == 0.0


def test_unknown_config_keys_rejected():
    with pytest.raises(ConfigError):
        run({"command": "validate", "mystery": 1})
    with pytest.raises(ConfigError):
        run({"command": "validate", "structure": {"name": "standard", "spin": 3}})
    with pytest.raises(ConfigError):
        run({"command": "dance"})


def test_disk_command_affine_case(tmp_path):
    csv_path = tmp_path / "disk.csv"
    code, report = run({"command": "disk",
                        "structure": {"name": "standard", "n": 1},
                        "grid": {"N": 33, "r": 1.0},
                        "params": {"p": [0.0, 0.0], "q": [0.2, 0.0], "t": 0.5},
                        "output": {"csv": str(csv_path)}})
    assert code == 0
    res = report["results"]
    assert res["residual"] < 1e-12
    assert res["endpoints"]["value_at_t"] == pytest.approx([0.2, 0.0], abs=1e-12)
    header = csv_path.read_text().splitlines()[0]
    assert header == "x,y,v0,v1"


def test_disk_command_echoes_the_node_it_solved_at():
    # t defaults to 0.5 with q and is left unset with w, which never reads it
    for params, t in (({"q": [0.2, 0.0]}, 0.5), ({"q": [0.2, 0.0], "t": 0.25}, 0.25),
                      ({"w": [0.2, 0.0]}, None)):
        code, report = run({"command": "disk", "grid": {"N": 9},
                            "params": {"p": [0.0, 0.0], **params}})
        assert code == 0
        assert report["config"]["params"]["t"] == t
        assert ("value_at_t" in report["results"]["endpoints"]) == (t is not None)


def test_disk_command_derivative_mode():
    code, report = run({"command": "disk",
                        "structure": {"name": "conjugated", "n": 1, "epsilon": 0.1},
                        "grid": {"N": 33, "r": 1.0},
                        "solver": {"epsilon": 0.05},
                        "params": {"p": [0.0, 0.0], "w": [0.2, 0.0]}})
    assert code == 0
    assert report["results"]["residual"] < 1e-3


def test_distance_command_flat_bound():
    code, report = run({"command": "distance",
                        "structure": {"name": "standard", "n": 1},
                        "params": {"p": [0.0, 0.0], "q": [0.3, 0.0],
                                   "t_grid": [0.05, 0.25, 0.5], "k_max": 1}})
    assert code == 0
    assert report["results"]["upper"] <= np.arctanh(0.05) + 1e-9


def test_distance_command_reports_pruned_attempts():
    # the one-link chain at t = 0.05 costs f, so every two-link chain costs
    # at least 2 f and the search stops at k = 2 without a solve
    code, report = run({"command": "distance",
                        "structure": {"name": "standard", "n": 1},
                        "params": {"p": [0.0, 0.0], "q": [0.3, 0.0],
                                   "t_grid": [0.05, 0.25, 0.5], "k_max": 3}})
    assert code == 0
    results = report["results"]
    f = results["upper"]
    assert results["search_log"] == [[1, 0.05, f]]
    assert results["pruned"] == [[2, 0, 0.05, f + f]]


@pytest.mark.parametrize("r, t_grid", [("0.5", "0.05,0.1,0.15,0.2,0.25,0.4"),
                                       ("2", "0.1,0.2,0.3,0.4,0.5,0.6")])
def test_distance_command_measures_link_costs_in_the_grid_radius(r, t_grid, capsys):
    # the unit-ball distance from 0 to 0.3 is arctanh(0.3) at every grid radius
    assert main(["distance", "--structure", "standard", "--radius", "1", "--r", r,
                 "--p", "0,0", "--q", "0.3,0", "--t-grid", t_grid, "--k-max", "1"]) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    assert abs(results["upper"] - math.atanh(0.3)) <= 1e-15
    assert [link["cost"] for link in results["links"]] == [results["upper"]]


def test_nodes_beyond_one_on_a_wide_grid_run(capsys):
    # t is bounded by r - h of the grid, not by 1
    assert main(["distance", "--structure", "standard", "--r", "2.5", "--p", "0,0",
                 "--q", "0.3,0", "--t-grid", "1.5", "--k-max", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["results"]["upper"] == \
        pytest.approx(math.atanh(0.6), abs=1e-15)
    assert main(["disk", "--structure", "conjugated", "--r", "2.5", "--p", "0,0",
                 "--q", "0.3,0.1", "--t", "1.5"]) == 0
    endpoints = json.loads(capsys.readouterr().out)["results"]["endpoints"]
    # matching holds to round-off, as in the library's own test
    assert endpoints["value_at_t"] == pytest.approx([0.3, 0.1], abs=1e-14)


def test_validate_command_at_the_largest_dimension(capsys):
    assert main(["validate", "--structure", "conjugated", "--n", "8", "--samples", "100"]) == 0
    assert json.loads(capsys.readouterr().out)["results"]["passed"] is True


def test_distance_solver_failure_exit_code():
    code, report = run({"command": "distance",
                        "structure": {"name": "standard", "n": 1, "radius": 0.2},
                        "params": {"p": [0.0, 0.0], "q": [0.15, 0.0],
                                   "t_grid": [0.5], "k_max": 1}})
    assert code == 3
    assert report["error"]["type"] == "NoChainFound"


def test_bound_command():
    code, report = run({"command": "bound",
                        "structure": {"name": "standard", "n": 1, "radius": 1.0},
                        "params": {"p": [0.0, 0.0], "lambda_max": 4.0}})
    assert code == 0
    assert abs(report["results"]["lambda_lower"] - 1.0) <= 0.05


def test_bound_report_gates_its_probes():
    code, report = run({"command": "bound",
                        "structure": {"name": "conjugated", "epsilon": 0.2},
                        "params": {"p": [0.0, 0.0], "nu": [1.0, 0.3], "lambda_max": 40.0}})
    assert code == 0
    res = report["results"]
    assert (res["lambda_lower"], res["unbounded_suspected"]) == (4.296875, False)
    assert res["probes"][0] == {"lam": 40.0, "feasible": False,
                                "residual": res["probes"][0]["residual"], "gate": "residual"}
    assert res["probes"][0]["residual"] > 1.0


@pytest.mark.parametrize("argv, code, key", [
    # the bisection from 1e300 makes about 1000 probes, most of them solves
    # that stop contracting, so they run on a 9-node grid with a 5-step
    # budget, which ends each before its tenth step could show it
    (["bound", "--structure", "conjugated", "--epsilon", "0.2", "--p", "0,0",
      "--nu", "1,0.3", "--lambda-max", "1e300", "--N", "9", "--cfg", "max_iter=5"],
     0, "results"),
    (["distance", "--structure", "conjugated", "--p", "0,0", "--q", "1e300,0"], 3, "error"),
])
def test_huge_inputs_end_in_a_report_without_a_warning(argv, code, key, capsys):
    # a residual or a gap that overflows is inf, silently, and fails its gate
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == code
    report = json.loads(capsys.readouterr().out)
    assert key in report
    if code == 3:
        assert report["error"]["type"] == "NoChainFound"
    else:
        assert report["results"]["unbounded_suspected"] is False


@pytest.mark.parametrize("argv", [
    ["disk", "--p", "0,0", "--w", "1e308,1e308"],
    ["disk", "--p", "0,0", "--w", "1e308,0"],
    ["disk", "--p", "1e308,1e308", "--q", "0,0"],
    ["disk", "--structure", "torus-flat", "--p", "1e308,0", "--q", "0,0"],
])
def test_huge_matched_data_end_in_a_config_error_without_a_warning(argv, capsys):
    # a seed, or a seed's derivative, that overflows reads inf or nan,
    # silently, and the solver's non-finite check refuses it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 2
    assert "config error: map has non-finite values at retained nodes" in capsys.readouterr().err


def test_brody_command_flat_torus():
    code, report = run({"command": "brody",
                        "structure": {"name": "torus-flat", "n": 1},
                        "grid": {"N": 33, "r": 1.0},
                        "params": {"family": {"kind": "dilations", "base": 4.0},
                                   "R": 2.0, "tol": 1e-10, "n_max": 6}})
    assert code == 0
    assert report["results"]["converged"] is True
    assert report["results"]["line"]["derivative_at_0"] == pytest.approx(1.0, abs=1e-6)
    # steps are RescaleRecords; the line's delta is the last step's
    steps = report["results"]["steps"]
    assert list(steps[-1]) == ["n", "r_n", "sup_derivative", "recentered", "t0", "delta"]
    assert report["results"]["line"]["achieved_delta"] == steps[-1]["delta"] is not None


def test_jsonify_serializes_a_record_by_its_fields():
    bound = cli._jsonify(BoundReport(2.0, math.inf, True, [
        BoundProbe(1.0, True, 1e-3, None), BoundProbe(2.0, False, None, "Diverged")]))
    assert list(bound) == ["lambda_lower", "lambda_max", "unbounded_suspected", "probes"]
    assert bound == {"lambda_lower": 2.0, "lambda_max": "inf", "unbounded_suspected": True,
                     "probes": [
                         {"lam": 1.0, "feasible": True, "residual": 1e-3, "gate": None},
                         {"lam": 2.0, "feasible": False, "residual": None,
                          "gate": "Diverged"}]}
    # RescalingReport's properties deltas and converged are not fields
    assert cli._jsonify(RescalingReport([], None, "m")) == {
        "steps": [], "final": None, "message": "m"}


def test_selftest_deterministic_and_passing():
    cfg = {"command": "selftest", "seed": 7}
    code1, rep1 = run(dict(cfg))
    code2, rep2 = run(dict(cfg))
    assert code1 == code2 == 0
    assert rep1["results"]["all_passed"] is True
    assert strip_timestamp(rep1) == strip_timestamp(rep2)


def test_report_round_trip():
    code, report = run({"command": "validate",
                        "structure": {"name": "conjugated", "n": 1, "epsilon": 0.1},
                        "params": {"samples": 100}, "seed": 3})
    code2, report2 = run(report["config"])
    assert code == code2
    assert strip_timestamp(report) == strip_timestamp(report2)


def test_main_entrypoint_writes_report(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["validate", "--structure", "standard", "--n", "1",
                 "--samples", "50", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["results"]["passed"] is True


def test_main_config_error_exit_code(capsys):
    assert main(["disk", "--p", "0,0"]) == 2


# A dict in argv is written to a --config file that replaces it.
_DISK = {"p": [0, 0], "q": [0.2, 0]}
_DISTANCE = {"p": [0, 0], "q": [0.3, 0]}


@pytest.mark.parametrize("argv", [
    ["bound", "--p", "0,0", "--nu", "0,0"],
    ["disk", "--p", "0,0", "--q", "0.2,0", "--N", "4"],
    ["disk", "--p", "0,0", "--q", "0.2,0", "--cfg", "epsilon=nan"],
    ["disk", "--p", "0,0", "--q", "0.2,0", "--cfg", "max_iter=abc"],
    ["disk", "--p", "0,0", "--q", "nan,0"],
    ["disk", "--p", "abc,0", "--q", "0.2,0"],
    ["disk", "--p", "0,0", "--q", "0.2,0", "--cfg", "epsilon=0"],
    ["disk", "--p", "0,0", "--q", "0.2,0", "--cfg", "continuation_retries=2"],
    ["validate", "--config", "missing.json"],
    ["validate", "--config", "malformed.json"],
    ["validate", "--config", [1, 2]],
    ["validate", "--config", {"command": "disk", "params": _DISK}],
    ["disk", "--config", {"solver": {"max_iter": "abc"}, "params": _DISK}],
    ["disk", "--config", {"solver": {"max_iter": 80.5}, "params": _DISK}],
    ["disk", "--config", {"params": {"q": [0.2, 0]}}],
    ["disk", "--config", {"grid": {"N": 33.7}, "params": _DISK}],
    ["validate", "--config", {"seed": "abc"}],
    ["validate", "--config", {"seed": -1}],
    ["validate", "--config", {"structure": {"n": "abc"}}],
    ["validate", "--config", {"params": {"samples": "x"}}],
    ["validate", "--config", {"params": {"samples": -1}}],
    ["bound", "--config", {"params": {"p": [0, 0], "lambda_max": "big"}}],
    ["distance", "--config", {"params": dict(_DISTANCE, t_grid="abc")}],
    ["distance", "--config", {"params": dict(_DISTANCE, t_grid=[])}],
    ["distance", "--config", {"params": dict(_DISTANCE, k_max=0)}],
    ["brody", "--config", {"params": {"family": "dilations"}}],
    ["brody", "--config", {"params": {"family": {"kind": "derivative-ladder"}}}],
    ["distance", "--p", "0,0", "--q", "0.3,0", "--t-grid", "a,b"],
    ["brody", "--family", "derivative-ladder", "--lambdas", "x"],
    ["bound", "--p", "0,0", "--bisect-tol", "0"],
    ["bound", "--p", "0,0", "--lambda-max", "-1"],
    ["validate", "--N", "9", "--samples", "5", "--out", "missing_dir/r.json"],
    ["disk", "--p", "0,0", "--q", "0.2,0", "--N", "9", "--csv", "missing_dir/d.csv"],
    ["brody", "--structure", "torus-flat", "--csv", "missing_dir/l.csv"],
    ["validate", "--N", "100001"],
    ["validate", "--n", "100000"],
    ["validate", "--r", "1e-170"],
    ["validate", "--samples", "1000000000"],
    ["validate", "--samples", "0"],
    ["disk", "--p", "0,0", "--q", "0.2,0", "--w", "0.2,0"],
    ["disk", "--p", "0,0", "--q", "0.2,0", "--cfg", "tol_newton=1e-8"],
    ["disk", "--p", "0,0", "--q", "0.2,0", "--cfg", "max_newton=25"],
    ["disk", "--p", "0,0", "--q", "0.2,0", "--cfg", "fd_step=1e-6"],
    ["brody", "--structure", "torus-flat", "--n-max", "0"],
    ["brody", "--structure", "torus-flat", "--tol", "0"],
    ["brody", "--structure", "torus-flat", "--tol=-1e-8"],
    ["validate", "--N", "7"],
    ["disk", "--p", "0,0", "--q", "0.1,0", "--N", "9", "--t", "0.75"],
    ["disk", "--p", "0,0", "--q", "0.1,0", "--t", "1e-12"],
    ["disk", "--structure", "conjugated", "--epsilon", "0.1", "--p", "0,0", "--q", "0.1,0",
     "--N", "33", "--cfg", "divergence_factor=-1"],
    ["disk", "--p", "0,0", "--q", "0.2,0", "--cfg", "divergence_window=5"],
    ["distance", "--p", "0,0", "--q", "0.1,0", "--N", "9", "--t-grid", "0.5,0.75", "--k-max", "1"],
    ["distance", "--config", {"params": dict(_DISTANCE, residual_cap=-1)}],
    ["disk", "--p", "0,0", "--q", "0.3,0.1", "--r", "2.5", "--t", "2.45"],
    ["disk", "--p", "0,0", "--w", "0.1,0", "--t", "0.3"],
])
def test_main_bad_input_exits_2(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "malformed.json").write_text("{not json")
    (tmp_path / "config.json").write_text(json.dumps(argv[-1]))
    argv = [a if isinstance(a, str) else "config.json" for a in argv]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("config error:")


def test_size_limits_are_in_the_help(capsys):
    assert main(["validate", "--help"]) == 0
    text = " ".join(capsys.readouterr().out.split())
    for key, most in (("grid.N", 1025), ("structure.n", 8), ("params.samples", 100000)):
        assert f"sets {key}, at most {most}" in text


@pytest.mark.parametrize("argv", [
    ["disk", "--p", "0,0", "--q", "0.2,0"],
    ["disk", "--p", "0,0", "--w", "0.2,0"],
    ["brody", "--structure", "torus-flat"],
    ["brody", "--structure", "torus-flat", "--family", "derivative-ladder",
     "--lambdas", "1,2"],
])
def test_unwritable_csv_fails_before_any_solve(argv, tmp_path, monkeypatch, capsys):
    def solver_called(*args, **kwargs):
        raise AssertionError("the solve ran before the --csv path was tried")

    for name in ("two_point_disk", "derivative_disk", "dilation_family",
                 "derivative_ladder_family", "extract_line"):
        monkeypatch.setattr(cli, name, solver_called)
    assert main(argv + ["--csv", str(tmp_path / "missing_dir" / "out.csv")]) == 2
    assert capsys.readouterr().err.startswith("config error: cannot write")


def test_disk_report_counts_every_fixed_point_step():
    code, report = run({"command": "disk",
                        "structure": {"name": "conjugated", "epsilon": 0.1},
                        "grid": {"N": 33}, "solver": {"epsilon": 0.5},
                        "params": {"p": [0.0, 0.0], "q": [0.3, -0.2]}})
    assert code == 0
    res = report["results"]
    assert "newton_steps" not in res
    assert res["iterations"] == 4
    assert res["endpoints"]["value_at_t"] == pytest.approx([0.3, -0.2], abs=1e-14)


def test_divergence_state_is_in_the_error_section():
    code, report = run({"command": "disk",
                        "structure": {"name": "conjugated", "epsilon": 0.1},
                        "grid": {"N": 33},
                        "solver": {"epsilon": 0.05, "max_iter": 3, "tol_fixpoint": 1e-15},
                        "params": {"p": [0.3, 0.1], "q": [-0.2, 0.4]}})
    assert code == 3
    error = report["error"]
    assert error["type"] == "Diverged"
    deltas = error["last_deltas"]
    assert len(deltas) == 3 and all(d > 0 for d in deltas)
    assert error["worst_ratio"] == max(deltas[1] / deltas[0], deltas[2] / deltas[1])
    json.dumps(report, allow_nan=False)


def test_singular_structure_names_the_point_in_the_error_section(monkeypatch):
    # a config names only builtin perturbations, all regular, so the gallery
    # is handed B with S[0, 0] = 1 - p_0 / 0.3, which is exactly 0 on the
    # line p_0 = 0.3 and nonzero on the gallery's validation lattice; the
    # affine seed from p = (0.3, 0) puts the centre node on that line
    eps = 0.5

    def b_field(points):
        b = np.zeros(points.shape + (points.shape[-1],))
        b[:, 0, 0] = -points[:, 0] / (eps * 0.3)
        return b

    gallery = cli.gallery
    monkeypatch.setattr(cli, "gallery",
                        lambda name, **kw: gallery(name, **{**kw, "perturbation": b_field}))
    code, report = run({"command": "disk",
                        "structure": {"name": "conjugated", "epsilon": eps},
                        "grid": {"N": 9},
                        "params": {"p": [0.3, 0.0], "q": [0.4, 0.1]}})
    assert code == 3
    error = report["error"]
    assert error["type"] == "Singular"
    where = error["where"]
    assert len(where) == 2 and where[0] == 0.3
    assert str(error["where"]) in error["message"]
    json.dumps(report, allow_nan=False)


def test_flags_overlay_config_file(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"structure": {"name": "conjugated", "epsilon": 0.2},
                                "params": {"samples": 10}}))
    out = tmp_path / "report.json"
    assert main(["validate", "--config", str(path), "--epsilon", "0.1",
                 "--out", str(out)]) == 0
    config = json.loads(out.read_text())["config"]
    assert config["structure"]["name"] == "conjugated"
    assert config["structure"]["epsilon"] == 0.1
    assert config["params"]["samples"] == 10
    # validate reads no solver settings, so its echo carries none
    assert "solver" not in config and config["seed"] == 0


# the sections of each command's config, in echo order, the objects run()
# builds for it, and the settable leaves of its table besides ``command``
_READS = {
    "validate": (["structure", "grid", "params", "output", "seed"], {"J", "grid", "rng"}, 9),
    "disk": (["structure", "grid", "solver", "params", "output"], {"J", "grid", "cfg"}, 15),
    "distance": (["structure", "grid", "solver", "params", "output"], {"J", "grid", "cfg"}, 14),
    "bound": (["structure", "grid", "solver", "params", "output"], {"J", "grid", "cfg"}, 14),
    "brody": (["structure", "grid", "solver", "params", "output"], {"J", "grid", "cfg"}, 15),
    "selftest": (["params", "output", "seed"], {"rng"}, 2),
}
_MINIMAL_PARAMS = {"disk": _DISK, "distance": _DISTANCE, "bound": {"p": [0, 0]}}


def _assert_same_keys(echo: dict, table: dict):
    assert list(echo) == list(table)
    for key, spec in table.items():
        if isinstance(spec, dict):
            _assert_same_keys(echo[key], spec)


def _leaves(table: dict) -> int:
    return sum(_leaves(spec) if isinstance(spec, dict) else 1 for spec in table.values())


@pytest.mark.parametrize("command", list(_READS))
def test_each_command_echoes_exactly_the_keys_it_reads(command, monkeypatch):
    sections, objects, leaves = _READS[command]
    built = {}

    def runner(config, **kwargs):
        built.update(kwargs)
        return {}, 0

    monkeypatch.setitem(cli._COMMANDS, command, (runner, cli._COMMANDS[command][1]))
    code, report = run({"command": command, "params": _MINIMAL_PARAMS.get(command, {})})
    table = cli._command_table(command)
    assert code == 0 and list(report["config"]) == ["command", *sections]
    _assert_same_keys(report["config"], table)
    writes_csv = command in ("disk", "brody")
    assert list(table["output"]) == (["report", "csv"] if writes_csv else ["report"])
    assert set(built) == objects
    assert _leaves(table) - 1 == leaves


def test_settable_values_total_69():
    assert sum(_leaves(cli._command_table(c)) - 1 for c in cli._COMMANDS) == 69


def test_selftest_builds_nothing_from_its_config(monkeypatch, capsys):
    # gallery and make_grid raise when run() calls them; the battery's own
    # structures and grids are built as before
    def refuse(fn):
        def guarded(*args, **kwargs):
            if inspect.currentframe().f_back.f_code is cli.run.__code__:
                raise AssertionError(f"run() called {fn.__name__} for selftest")
            return fn(*args, **kwargs)
        return guarded

    monkeypatch.setattr(cli, "gallery", refuse(cli.gallery))
    monkeypatch.setattr(cli, "make_grid", refuse(cli.make_grid))
    assert main(["selftest", "--seed", "11"]) == 0
    out, err = capsys.readouterr()
    assert json.loads(out)["results"]["all_passed"] is True
    assert err.startswith("self test results:\n") and "FAIL" not in err


def test_a_failing_check_fails_the_self_test(monkeypatch, capsys):
    # the weighted derivative of z**2 is 4/(3*sqrt(3)), not 0
    monkeypatch.setattr(cli, "scaling_sup", lambda f, r: 0.0)
    code, report = run({"command": "selftest"})
    results = report["results"]
    assert code == 3 and results["all_passed"] is False
    assert [c["name"] for c in results["checks"] if not c["passed"]] == [
        "weighted-derivative-analytic"]
    capsys.readouterr()
    assert main(["selftest"]) == 3
    rows = dict(line.split() for line in capsys.readouterr().err.splitlines()[1:])
    assert [name for name, verdict in rows.items() if verdict == "FAIL"] == [
        "weighted-derivative-analytic", "overall"]


@pytest.mark.parametrize("argv", [
    ["selftest", "--cfg", "max_iter=0"],
    ["validate", "--cfg", "max_iter=5"],
    ["selftest", "--structure", "conjugated", "--n", "8"],
    ["validate", "--csv", "out.csv"],
    ["distance", "--p", "0,0", "--q", "0.3,0", "--seed", "1"],
    ["validate", "--perturbation", "sin"],
])
def test_flags_of_unread_keys_are_unrecognized(argv, capsys):
    assert main(argv) == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("command, section", [
    ("selftest", {"structure": {"n": 8}}), ("selftest", {"grid": {"N": 33}}),
    ("validate", {"solver": {"max_iter": 5}}), ("bound", {"params": {"p": [0, 0]}, "output": {"csv": None}}),
    ("distance", {"params": dict(_DISTANCE, residual_cap=0.01)}),
    ("validate", {"structure": {"perturbation": "sin"}}),
])
def test_an_echo_carrying_unread_sections_is_a_config_error(command, section):
    with pytest.raises(ConfigError, match="unknown keys"):
        run({"command": command, **section})


_NOT_A_VALUE = object()   # stands for a key removed from the config
_BAD_VALUES = ["abc", "1,x", [1.0, "x"], {"a": 1}, True, None, math.nan, math.inf,
               -math.inf, 2.5, -3, _NOT_A_VALUE]
_SMALL_RUNS = {
    "validate": {"command": "validate", "grid": {"N": 9}, "params": {"samples": 20},
                 "structure": {"name": "conjugated", "radius": 1.0}, "seed": 1},
    "disk": {"command": "disk", "grid": {"N": 9},
             "params": {"p": [0.0, 0.0], "q": [0.2, 0.0]}},
}


def _leaf_paths(config, prefix=()):
    for key, value in config.items():
        if isinstance(value, dict):
            yield from _leaf_paths(value, prefix + (key,))
        else:
            yield prefix + (key,)


@st.composite
def _spoiled_configs(draw):
    config = run(_SMALL_RUNS[draw(st.sampled_from(sorted(_SMALL_RUNS)))])[1]["config"]
    *parents, key = draw(st.sampled_from(sorted(_leaf_paths(config))))
    value = draw(st.sampled_from(_BAD_VALUES))
    if parents == ["output"] and isinstance(value, str):
        value = None   # a string is a valid path; the run would write the file
    node = config
    for name in parents:
        node = node[name]
    if value is _NOT_A_VALUE:
        del node[key]
    else:
        node[key] = value
    return config


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_spoiled_configs())
def test_any_config_exits_0_2_or_3(config):
    """A config with one wrong-typed, non-finite or missing value either
    raises ConfigError or gives exit 0 or 3 with a JSON report, and its
    echo runs again to the same report."""
    try:
        code, report = run(config)
    except ConfigError:
        return
    assert code in (0, 3)
    json.dumps(report, allow_nan=False)
    code2, report2 = run(report["config"])
    assert code2 == code
    assert strip_timestamp(report2) == strip_timestamp(report)
