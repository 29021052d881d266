import argparse
import dataclasses
import math
import os
import re
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

from subharnack import cli, fracops, fundsol, harnack, kernels, solver
from subharnack.errors import ConfigError


def write_cfg(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def read_summary(out, experiment):
    return dict(line.split("=", 1) for line in
                (out / f"{experiment}_summary.txt").read_text().splitlines())


def assert_verdict(out, experiment, status):
    """``status=pass`` exactly when no other summary value reads fail, and
    the exit status agrees with it."""
    summary = read_summary(out, experiment)
    verdict = summary.pop("status")
    assert verdict == ("fail" if "fail" in summary.values() else "pass")
    assert status == (0 if verdict == "pass" else 1)


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

def test_parse_minimal_config():
    cfg = cli.parse_config("experiment=identities\nalpha=0.5\n")
    assert cfg.experiment == "identities"
    assert cfg.params["alpha"] == 0.5
    assert "seed" not in cfg.params
    seeded = cli.parse_config("experiment=maxprinciple\n")
    assert seeded.params["seed"] == cli.DEFAULT_SEED
    assert "alpha" not in seeded.params


def test_parse_comments_and_blanks():
    cfg = cli.parse_config(
        "# a comment\n\nexperiment=converge  # trailing\nsigma=2.0\n")
    assert cfg.experiment == "converge"
    assert cfg.params["sigma"] == 2.0


def test_parse_rejects_missing_experiment():
    with pytest.raises(ConfigError):
        cli.parse_config("alpha=0.5\n")


def test_parse_rejects_unknown_experiment():
    with pytest.raises(ConfigError):
        cli.parse_config("experiment=frobnicate\n")


def test_parse_rejects_unknown_key():
    with pytest.raises(ConfigError):
        cli.parse_config("experiment=identities\nbogus_key=1\n")


def test_parse_rejects_bad_value():
    with pytest.raises(ConfigError):
        cli.parse_config("experiment=identities\nalpha=fast\n")


def test_parse_rejects_duplicate_key():
    with pytest.raises(ConfigError):
        cli.parse_config("experiment=identities\nalpha=0.5\nalpha=0.6\n")


def test_parse_list_values():
    cfg = cli.parse_config("experiment=harnack\np_list=0.5,1.0,1.5\n")
    assert cfg.params["p_list"] == [0.5, 1.0, 1.5]


# ---------------------------------------------------------------------------
# runner behavior
# ---------------------------------------------------------------------------

def test_malformed_config_exits_2_without_files(tmp_path):
    cfg = write_cfg(tmp_path, "experiment=identities\nnope=1\n")
    out = tmp_path / "out"
    status = cli.main([cfg, "--out", str(out)])
    assert status == 2
    assert not out.exists()


def test_missing_config_file_exits_2(tmp_path):
    assert cli.main([str(tmp_path / "missing.cfg")]) == 2


def test_identities_run_writes_summary(tmp_path):
    cfg = write_cfg(tmp_path, "experiment=identities\nalpha=0.5\nm=256\n"
                              "n_levels=1,4\ngnprop_m=128\n")
    out = tmp_path / "out"
    status = cli.main([cfg, "--out", str(out)])
    assert status == 0
    summary = (out / "identities_summary.txt").read_text()
    assert "g_conv_identity=pass" in summary
    assert "status=pass" in summary
    assert not [p for p in out.iterdir() if ".tmp" in p.name]
    # the CSV formatter: LF endings and each float's exact round trip
    blob = (out / "yosida_l1.csv").read_bytes()
    assert b"\r" not in blob
    lines = blob.decode().split("\n")
    assert lines[0] == "n,l1" and lines[-1] == ""
    rows = [[float(v) for v in line.split(",")] for line in lines[1:-1]]
    assert rows == [[float(n), kernels.yosida_l1_distance(0.5, n)]
                    for n in (1, 4)]


def test_converge_run(tmp_path):
    cfg = write_cfg(tmp_path, "experiment=converge\nm_list=32,64\n")
    out = tmp_path / "out"
    assert cli.main([cfg, "--out", str(out)]) == 0
    body = (out / "relaxation_convergence.csv").read_text().splitlines()
    assert body[0] == "dt,error"
    assert len(body) == 3


def test_converge_order_is_per_doubling_of_m(tmp_path):
    # a 4x refinement is two doublings: the order is still about 1 + alpha
    cfg = write_cfg(tmp_path, "experiment=converge\nm_list=64,256\n")
    out = tmp_path / "out"
    assert cli.main([cfg, "--out", str(out)]) == 0
    summary = read_summary(out, "converge")
    assert summary["order_band"] == "pass"
    assert abs(float(summary["orders"]) - 1.5) <= 0.3


@pytest.mark.parametrize("error, gate", [
    (lambda m: 1e-3 * (64 / m) ** 0.5, "order_band"),   # small, order 0.5
    (lambda m: 10.0 * (64 / m) ** 1.5, "error_small"),  # order 1.5, large
])
def test_each_converge_gate_can_fail(tmp_path, monkeypatch, error, gate):
    # an injected relaxation path whose relative error at m levels is
    # error(m): each fault fails its own gate and no other
    exact = kernels.mittag_leffler(0.5, 1.0, -1.0)

    def faulty(alpha, sigma, T, grid):
        value = exact * (1.0 + error(grid.m))
        return fracops.SampledPath(grid, np.full(grid.m + 1, value))

    monkeypatch.setattr(solver, "solve_scalar_relaxation", faulty)
    out = tmp_path / "out"
    status = cli.main([write_cfg(tmp_path, "experiment=converge\n"),
                       "--out", str(out)])
    assert status == 1
    summary = read_summary(out, "converge")
    assert [k for k, v in summary.items() if v == "fail"] == [gate, "status"]
    assert_verdict(out, "converge", status)


def test_converge_reference_at_small_alpha_and_large_sigma(tmp_path):
    # E_alpha(-sigma) from the M-Wright ray against mpmath at 60 digits; a
    # contour integral once wrote 9.87218810725965e-4, 0.019999997852106297
    # and 1.6666655512496972e-4 here, and the last two runs exited 1
    for alpha, sigma, exact in (("0.02", "1000", 9.8721879525619314001e-4),
                                ("1e-8", "50", 0.01960784302629456532),
                                ("1e-6", "6000", 1.6663879734708650692e-4)):
        cfg = write_cfg(tmp_path, f"experiment=converge\nalpha={alpha}\n"
                                  f"sigma={sigma}\n")
        out = tmp_path / f"out_{alpha}"
        assert cli.main([cfg, "--out", str(out)]) == 0
        reference = float(read_summary(out, "converge")["reference"])
        assert abs(reference / exact - 1.0) <= 1e-10


def test_threads_env_is_not_read(tmp_path, monkeypatch):
    cfg = write_cfg(tmp_path, "experiment=maxprinciple\nruns=2\n")
    monkeypatch.setenv("SUBHARNACK_THREADS", "abc")
    assert cli.main([cfg, "--out", str(tmp_path / "out")]) == 0


def test_maxprinciple_run_and_threads_env(tmp_path, monkeypatch):
    cfg = write_cfg(tmp_path, "experiment=maxprinciple\nruns=8\n")
    out = tmp_path / "out"
    monkeypatch.setenv("SUBHARNACK_THREADS", "2")
    assert cli.main([cfg, "--out", str(out)]) == 0
    summary = (out / "maxprinciple_summary.txt").read_text()
    assert "violations=0" in summary


def test_deterministic_output(tmp_path):
    cfg = write_cfg(tmp_path, "experiment=maxprinciple\nruns=6\nseed=7\n")
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli.main([cfg, "--out", str(out_a)]) == 0
    assert cli.main([cfg, "--out", str(out_b)]) == 0
    for name in ("maxprinciple_runs.csv", "maxprinciple_summary.txt"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


@pytest.mark.parametrize("experiment", ["maxprinciple", "harnack"])
def test_default_run_does_not_depend_on_stencil_cache(tmp_path, monkeypatch,
                                                     experiment):
    # the first run keeps every stencil it builds alive, so a grid equal to
    # any earlier one shares its stencil; the second forgets them all, and
    # a stencil lives only as long as the run's own grids
    cfg = write_cfg(tmp_path, f"experiment={experiment}\n")
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    kept, init = [], solver._Stencil.__init__

    def keep(self, space):
        init(self, space)
        kept.append(self)

    with monkeypatch.context() as patch:
        patch.setattr(solver._Stencil, "__init__", keep)
        assert cli.main([cfg, "--out", str(out_a)]) == 0
    assert kept
    monkeypatch.setattr(solver, "_stencils", weakref.WeakValueDictionary())
    assert cli.main([cfg, "--out", str(out_b)]) == 0
    names = sorted(p.name for p in out_a.iterdir())
    assert names == sorted(p.name for p in out_b.iterdir())
    for name in names:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


TINY_CONFIGS = {
    "identities": "m=64\nn_levels=1,4\ngnprop_m=32\n",
    "converge": "m_list=16,32\n",
    "harnack": "nx=40\nm=12\nperiod=4\np_list=0.5,1.0\n",
    "optimality": "eps_count=4\n",
    "continuity": "nx=32\nm=64\nlevels=2\n",
    "maxprinciple": "runs=3\n",
}


@pytest.mark.parametrize("experiment", sorted(TINY_CONFIGS))
def test_every_family_reruns_byte_identical(tmp_path, experiment):
    cfg = write_cfg(tmp_path, f"experiment={experiment}\n"
                              + TINY_CONFIGS[experiment])
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    status = cli.main([cfg, "--out", str(out_a)])
    assert status in (0, 1)
    assert cli.main([cfg, "--out", str(out_b)]) == status
    names = sorted(p.name for p in out_a.iterdir())
    assert f"{experiment}_summary.txt" in names and len(names) >= 2
    assert names == sorted(p.name for p in out_b.iterdir())
    for name in names:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
    assert_verdict(out_a, experiment, status)
    # the summary ends with the experiment and the one of alpha and seed
    # that the family reads
    summary = read_summary(out_a, experiment)
    read = "seed" if experiment == "maxprinciple" else "alpha"
    assert list(summary)[-3:] == ["experiment", read, "status"]
    assert {"alpha", "seed"} & set(summary) == {read}


def test_failed_gate_sets_status_and_exit_1(tmp_path):
    text = "experiment=identities\nm=8\nn_levels=1,4\ngnprop_m=2\n"
    # a runner returns its files and summary, no verdict of its own
    files, summary = cli._FAMILIES["identities"][1](cli.parse_config(text))
    assert "fail" in summary.values() and "status" not in summary
    out = tmp_path / "out"
    status = cli.main([write_cfg(tmp_path, text), "--out", str(out)])
    assert status == 1
    assert_verdict(out, "identities", status)


def test_continuity_run(tmp_path):
    cfg = write_cfg(tmp_path,
                    "experiment=continuity\nalpha=0.6666666666666666\n"
                    "nx=96\nm=512\n")
    out = tmp_path / "out"
    assert cli.main([cfg, "--out", str(out)]) == 0
    body = (out / "oscillation.csv").read_text().splitlines()
    assert body[0] == "r,osc"
    assert len(body) == 5


def test_continuity_run_at_alpha_one(tmp_path):
    # alpha = 1 is in continuity's range (0, 1]: the classical heat equation
    # keeps u0 and its history, so the oscillation does not vanish
    cfg = write_cfg(tmp_path, "experiment=continuity\nalpha=1.0\n")
    out = tmp_path / "out"
    assert cli.main([cfg, "--out", str(out)]) == 0
    body = (out / "oscillation.csv").read_text().splitlines()
    assert float(body[1].split(",")[1]) > 0.5


def test_harnack_run_without_refinement(tmp_path):
    cfg = write_cfg(tmp_path,
                    "experiment=harnack\nnx=80\nm=32\nperiod=4\nrefine=0\n"
                    "p_list=1.0\n")
    out = tmp_path / "out"
    assert cli.main([cfg, "--out", str(out)]) == 0
    rows = (out / "harnack_reports.csv").read_text().splitlines()
    assert rows[0] == "p,lp_mean,essinf,ratio,grid"
    assert len(rows) == 2


def test_optimality_run_at_critical_exponent(tmp_path):
    cfg = write_cfg(tmp_path,
                    "experiment=optimality\np=1.6666666666666667\n"
                    "eps_count=12\n")
    out = tmp_path / "out"
    assert cli.main([cfg, "--out", str(out)]) == 0
    body = (out / "optimality.csv").read_text().splitlines()
    assert body[0] == "epsilon,integral"
    assert "log_fit=pass" in (out / "optimality_summary.txt").read_text()


@pytest.mark.parametrize("p, gate, measure, value", [
    # below the critical exponent 5/3 the integrals level off
    (1.0, "stabilizes", "last_decade_change", 3.4e-4),
    # above it they grow like eps^-(1 + e_p), slope 0.625 at p = 2.5
    (2.5, "growth_rate", "growth_slope", 0.62507),
])
def test_optimality_run_off_the_critical_exponent(tmp_path, p, gate, measure,
                                                  value):
    cfg = write_cfg(tmp_path, f"experiment=optimality\np={p}\n")
    out = tmp_path / "out"
    assert cli.main([cfg, "--out", str(out)]) == 0
    summary = read_summary(out, "optimality")
    assert summary[gate] == "pass" and summary["status"] == "pass"
    assert float(summary[measure]) == pytest.approx(value, rel=1e-3)
    if p > 5.0 / 3.0:
        assert float(summary["expected_slope"]) == 0.625


@pytest.mark.parametrize("p, gate, tilt", [
    # integrals that keep growing like eps^-0.05 below the critical exponent
    (1.0, "stabilizes", -0.05),
    # a growth slope 0.2 short of the expected 0.625 above it
    (2.5, "growth_rate", 0.2),
])
def test_optimality_off_critical_gate_can_fail(tmp_path, monkeypatch, p, gate,
                                               tilt):
    real = fundsol.optimality_experiment

    def faulty(*args, **kwargs):
        return [(e, v * e ** tilt) for e, v in real(*args, **kwargs)]

    monkeypatch.setattr(fundsol, "optimality_experiment", faulty)
    cfg = write_cfg(tmp_path, f"experiment=optimality\np={p}\n")
    out = tmp_path / "out"
    status = cli.main([cfg, "--out", str(out)])
    assert status == 1
    assert_verdict(out, "optimality", status)
    summary = read_summary(out, "optimality")
    assert [k for k, v in summary.items() if v == "fail"] == [gate, "status"]


def _last_infimum_zero(sweep, calls):
    # the last exponent's box infimum reads 0, so its ratio is infinite
    return sweep[:-1] + [dataclasses.replace(sweep[-1], essinf=0.0,
                                             ratio=math.inf)]


def _ratios_reversed(sweep, calls):
    # the same ratios, falling in p
    ratios = [r.ratio for r in reversed(sweep)]
    return [dataclasses.replace(r, ratio=q) for r, q in zip(sweep, ratios)]


def _fine_grid_ratios_up_10pct(sweep, calls):
    # the refined grid's ratios read 10% above the base grid's
    if calls == 1:
        return sweep
    return [dataclasses.replace(r, ratio=1.1 * r.ratio) for r in sweep]


@pytest.mark.parametrize("fault, refine, gate", [
    (_last_infimum_zero, 0, "ratios_finite"),
    (_ratios_reversed, 0, "ratio_monotone_in_p"),
    (_fine_grid_ratios_up_10pct, 1, "two_grid_stable"),
])
def test_each_harnack_gate_can_fail(tmp_path, monkeypatch, fault, refine,
                                    gate):
    # an injected fault in the measured sweep fails its own gate and no other
    real, calls = harnack.harnack_ratio_sweep, []

    def faulty(*args, **kwargs):
        calls.append(None)
        return fault(real(*args, **kwargs), len(calls))

    monkeypatch.setattr(harnack, "harnack_ratio_sweep", faulty)
    cfg = write_cfg(tmp_path, f"experiment=harnack\nrefine={refine}\n")
    out = tmp_path / "out"
    status = cli.main([cfg, "--out", str(out)])
    assert status == 1
    assert_verdict(out, "harnack", status)
    summary = read_summary(out, "harnack")
    assert [k for k, v in summary.items() if v == "fail"] == [gate, "status"]


@pytest.mark.parametrize("oscillations, slope, gate", [
    # flat: every box has the same oscillation, and the fit has no slope
    (lambda r: [0.5] * len(r), 0.0, "slope_positive"),
    # the second box oscillates more than the first
    (lambda r: [r[0], 2.0 * r[0], *r[2:]], 1.0, "osc_monotone"),
    # the smallest box oscillates twice as much as the fit predicts
    (lambda r: [*r[:-1], 2.0 * r[-1]], 1.0, "smallest_box_covered"),
])
def test_each_continuity_gate_can_fail(tmp_path, monkeypatch, oscillations,
                                       slope, gate):
    # an injected decay fit osc = exp(intercept) r^slope over the CLI's radii,
    # with the oscillations given: each fault fails its own gate only
    def faulty(result, x0, r_list, eta=1.0):
        radii = tuple(r_list)
        osc = tuple(oscillations(radii))
        intercept = math.log(osc[0] / radii[0] ** slope)
        return harnack.OscillationFit(slope, intercept, radii, osc)

    monkeypatch.setattr(harnack, "oscillation_decay", faulty)
    cfg = write_cfg(tmp_path, "experiment=continuity\n")
    out = tmp_path / "out"
    status = cli.main([cfg, "--out", str(out)])
    assert status == 1
    assert_verdict(out, "continuity", status)
    summary = read_summary(out, "continuity")
    assert [k for k, v in summary.items() if v == "fail"] == [gate, "status"]


def test_numerical_failure_exits_3(tmp_path):
    # the two boxes hold no cell midpoint of the 4-cell grid: empty region -> 3
    cfg = write_cfg(tmp_path, "experiment=harnack\nnx=4\nr=0.05\nrefine=0\n")
    out = tmp_path / "out"
    status = cli.main([cfg, "--out", str(out)])
    assert status == 3
    assert not out.exists()


@pytest.mark.parametrize("experiment,setting", [
    ("identities", "m=0"),
    ("harnack", "nx=2"),
    ("converge", "m_list=64"),
    ("maxprinciple", "runs=0"),
    ("continuity", "levels=1"),
    ("optimality", "eps_count=1"),
    # a valid count whose grid leaves one point in the last decade
    ("optimality", "p=1.0\neps_count=3"),
    # non-finite numbers are rejected when the config is parsed
    ("harnack", "r=inf"),
    ("harnack", "low=inf"),
    ("harnack", "x0=nan"),
    ("harnack", "p_list=0.5,inf"),
    ("continuity", "r0=inf"),
    ("converge", "sigma=inf"),
    # count lists take integers only, rather than truncating 64.5 to 64
    ("converge", "m_list=64.5,128.9,256"),
    ("identities", "n_levels=1,4.7,16"),
    # lists are read in order: each must be strictly increasing
    ("converge", "m_list=128,64"),
    ("converge", "m_list=64,64"),
    ("harnack", "p_list=1.5,1.0,0.5"),
    ("identities", "n_levels=256,64,16"),
])
def test_out_of_range_config_exits_2_without_files(tmp_path, capsys,
                                                   experiment, setting):
    text = f"experiment={experiment}\n{setting}\n"
    with pytest.raises(ConfigError):
        cli.parse_config(text)
    cfg = write_cfg(tmp_path, text)
    out = tmp_path / "out"
    assert cli.main([cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("[subharnack] config error:")
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("experiment,setting", [
    # the seed feeds numpy's generator, which takes no negative seed
    ("maxprinciple", "seed=-1\nruns=2"),
    # values the parser passed before, which then failed inside a run
    ("optimality", "N=4"),
    ("optimality", "eps_max=2"),
    ("optimality", "eps_min=1"),
    ("identities", "alpha=1.0"),
    ("harnack", "alpha=1.0"),
    ("optimality", "alpha=1.0"),
    # time scales that underflow below the smallest normal float
    ("harnack", "alpha=1e-3"),
    ("continuity", "alpha=1e-3"),
    ("harnack", "tau=1e-300\nalpha=0.1"),
    # a key the family does not read: only maxprinciple draws from a seed,
    # and each of its runs draws its own alpha
    *((family, "seed=1") for family in
      ("identities", "converge", "harnack", "optimality", "continuity")),
    ("maxprinciple", "alpha=0.5"),
    # geometry outside the unit interval, rejected before any solve
    ("harnack", "x0=0.1"),
    ("harnack", "r=5.0\nrefine=0"),
    ("continuity", "x0=2.0"),
    # the eps grid is read from eps_min up to a larger eps_max
    ("optimality", "eps_min=0.1\neps_max=1e-8"),
    ("optimality", "eps_min=0.01\neps_max=0.01"),
])
def test_out_of_domain_config_is_a_config_error(tmp_path, capsys, experiment,
                                                setting):
    text = f"experiment={experiment}\n{setting}\n"
    # the parser itself rejects it, so no run starts
    with pytest.raises(ConfigError):
        cli.parse_config(text)
    cfg = write_cfg(tmp_path, text)
    out = tmp_path / "out"
    assert cli.main([cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("[subharnack] config error:")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("exc", [MemoryError(), MemoryError("no room"),
                                 ValueError("size exceeded")])
def test_an_exception_in_a_run_exits_3_without_files(tmp_path, capsys,
                                                     monkeypatch, exc):
    # exit 1 means a failed gate; a run that raises must not read as one
    def raising(cfg):
        raise exc

    schema, _ = cli._FAMILIES["converge"]
    monkeypatch.setitem(cli._FAMILIES, "converge", (schema, raising))
    out = tmp_path / "out"
    assert cli.main([write_cfg(tmp_path, "experiment=converge\n"),
                     "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err == ("[subharnack] numerical failure: "
                   f"{str(exc) or type(exc).__name__}\n")
    assert not out.exists()


def test_options_match_readme_usage(tmp_path, monkeypatch):
    """The flags ``main`` accepts are exactly those on README's usage line."""
    seen = []
    parse_args = argparse.ArgumentParser.parse_args

    def spy(parser, *args, **kwargs):
        seen.append({opt for action in parser._actions
                     for opt in action.option_strings} - {"-h", "--help"})
        return parse_args(parser, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", spy)
    assert cli.main([str(tmp_path / "missing.cfg")]) == 2
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    usage = [line for line in readme.splitlines()
             if line.startswith("subharnack <config-file>")]
    assert len(usage) == 1
    assert seen == [set(re.findall(r"--[a-z-]+", usage[0]))]


def test_family_keys_match_readme():
    """README's key paragraph names exactly the common keys and each
    family's own keys, family by family."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    para = readme.split("Common keys:", 1)[1]
    common, families = re.split(r"\.\s+Family-specific keys", para, 1)
    common_keys = set(cli._COMMON) - {"experiment"}
    assert set(re.findall(r"`(\w+)`", common)) == common_keys
    # the family list ends with the sentence: a period, then a blank
    families = re.split(r"\.\s", families, 1)[0]
    parts = re.split(r"`(\w+)`:", families)[1:]
    listed = dict(zip(parts[::2], parts[1::2]))
    assert list(listed) == list(cli._FAMILIES)
    for family, text in listed.items():
        assert set(re.findall(r"`(\w+)`", text)) == \
            set(cli._FAMILIES[family][0]), family


def test_removed_threads_option_exits_2(tmp_path):
    cfg = write_cfg(tmp_path, "experiment=maxprinciple\nruns=2\n")
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        cli.main([cfg, "--out", str(out), "--threads", "2"])
    assert exc.value.code == 2
    assert not out.exists()


def test_failed_write_leaves_no_files(tmp_path, monkeypatch):
    writes = []
    real_write = Path.write_text

    def failing_second_write(self, text, *args, **kwargs):
        writes.append(self.name)
        if len(writes) == 2:
            raise OSError("disk full")
        return real_write(self, text, *args, **kwargs)

    monkeypatch.setattr(Path, "write_text", failing_second_write)
    out = tmp_path / "out"
    with pytest.raises(OSError):
        cli._atomic_write_all(out, {"a.csv": "1\n", "b.csv": "2\n",
                                    "c.txt": "3\n"})
    assert len(writes) == 2
    assert list(out.iterdir()) == []


def test_unwritable_output_location_exits_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "experiment=converge\nm_list=16,32\n")
    blocker = tmp_path / "plain_file"
    blocker.write_text("")
    assert cli.main([cfg, "--out", str(blocker / "sub")]) == 2
    assert "[subharnack] cannot write outputs:" in capsys.readouterr().err
    assert blocker.read_text() == ""


def fresh_python(args):
    """A new interpreter, given ``args``, that imports this checkout's
    package."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH"))
                           if p)
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env, timeout=300)


def run_fresh(args):
    """``python -m subharnack.cli`` in a new interpreter."""
    return fresh_python(["-m", "subharnack.cli", *args])


SOLVE_AND_RUN_HARNACK = """
import sys
import numpy as np
import subharnack
from subharnack import cli, solver
from subharnack.fracops import TimeGrid
g = solver.SpaceGrid.rectangle((0.0, 0.0), (1.0, 1.0), (8, 12))
spec = solver.ProblemSpec(
    alpha=0.5, space=g, time=TimeGrid.from_horizon(0.2, 12),
    u0=np.ones(g.shape), boundary=0.0,
    coefficients=solver.checkerboard_coefficients(g, 2, 0.5, 4.0, time_flip=3))
solver.supersolution_residual(solver.solve_subdiffusion(spec))
status = cli.main([sys.argv[1], "--out", sys.argv[2]])
print(status, "scipy.sparse" in sys.modules)
"""


def test_solve_weak_form_and_harnack_run_never_import_scipy_sparse(tmp_path):
    cfg = write_cfg(tmp_path, "experiment=harnack\n")
    proc = fresh_python(["-c", SOLVE_AND_RUN_HARNACK, cfg,
                         str(tmp_path / "out")])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "False"]


@pytest.mark.parametrize("status,text,out", [
    (0, "experiment=converge\nm_list=16,32\n", "out"),
    (1, "experiment=identities\nm=8\nn_levels=1,4\ngnprop_m=2\n", "out"),
    (2, "experiment=converge\nm_list=64\n", "out"),
    (2, "experiment=converge\nm_list=16,32\n", "plain_file/sub"),
    (3, "experiment=harnack\nnx=4\nr=0.05\nrefine=0\n", "out"),
    # numpy refuses an array this long before allocating any of it
    (3, "experiment=identities\nm=100000000000000000000\n", "out"),
    # eps grids covering a tenth of the window's decade, below the critical
    # exponent, and a thousandth of a decade at it
    (2, "experiment=optimality\np=1.0\neps_min=1e-8\neps_max=1.1e-8\n",
     "out"),
    (2, "experiment=optimality\neps_min=0.00999\neps_max=0.01\n", "out"),
    # t^e_p overflows near eps_min: a numerical failure, not a failed gate
    (3, "experiment=optimality\np=100\n", "out"),
    # errors shrink at the expected order but are larger than the answer
    (1, "experiment=converge\nsigma=1e6\n", "out"),
    # a subnormal alpha: the M-Wright rule misses its moments
    (3, "experiment=identities\nalpha=5e-324\n", "out"),
    (3, "experiment=optimality\nalpha=5e-324\n", "out"),
    (3, "experiment=converge\nalpha=5e-324\n", "out"),
    # every relative error is exactly 0.0: no order can be measured
    (3, "experiment=converge\nsigma=1e-20\n", "out"),
    # at alpha = 1 the reference exp(-1000) underflows to 0.0
    (3, "experiment=converge\nalpha=1\nsigma=1000\n", "out"),
])
def test_fresh_interpreter_exit_codes_without_traceback(tmp_path, status,
                                                        text, out):
    cfg = write_cfg(tmp_path, text)
    (tmp_path / "plain_file").write_text("")
    proc = run_fresh([cfg, "--out", str(tmp_path / out)])
    assert proc.returncode == status, proc.stderr
    assert "Traceback" not in proc.stderr
    if status >= 2:
        assert proc.stderr.count("[subharnack]") == 1
        assert proc.stderr.count("\n") == 1
        assert not (tmp_path / out).exists()
    if status == 2 and "optimality" in text:
        assert proc.stderr.startswith("[subharnack] config error: the eps grid")
    if "5e-324" in text:
        assert "M-Wright rule at alpha=5e-324 misses a moment" in proc.stderr
    if status == 1 and "converge" in text:
        summary = (tmp_path / out / "converge_summary.txt").read_text()
        assert "order_band=pass\n" in summary
        assert "error_small=fail\n" in summary


def test_fresh_interpreter_rejects_low_above_high(tmp_path):
    # the checkerboard needs 0 < low <= high: a config error, not a run failure
    cfg = write_cfg(tmp_path, "experiment=harnack\nlow=5\nhigh=1\nrefine=0\n")
    out = tmp_path / "out"
    proc = run_fresh([cfg, "--out", str(out)])
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("[subharnack] config error: low must be")
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr
    assert not out.exists()
    equal = cli.parse_config("experiment=harnack\nlow=2\nhigh=2\n")
    assert equal.params["low"] == equal.params["high"] == 2.0
