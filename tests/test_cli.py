"""Command-line runner: golden outputs, the invariant suite, exit codes."""

import ast
import configparser
import csv
import gc
import importlib.util
import math
import os
import subprocess
import sys
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from igafin.checks import run_checks
from igafin.cli import _KNOWN_KEYS, ConfigError, _read_ini, main
from igafin.greeks import check_greeks
from igafin.models import LelandParams
from igafin.stepper import SchemeConfig, value_curve

ROOT = Path(__file__).resolve().parents[1]


def _config(tmp_path, base, **overrides):
    """Copy of ``configs/<base>`` with keys overridden: ``"section.key"``
    names a key of that section, a plain key one of [discretization],
    ``{tmp}`` in a value stands for ``tmp_path`` and None removes the key."""
    cp = configparser.ConfigParser(interpolation=None)
    cp.read(ROOT / "configs" / base)
    for key, value in overrides.items():
        section, _, key = key.rpartition(".")
        section = section or "discretization"
        if value is None:
            cp.remove_option(section, key)
        else:
            cp[section][key] = str(value).format(tmp=tmp_path)
    path = tmp_path / base
    with open(path, "w") as fh:
        cp.write(fh)
    return path


def _read(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _load_compare_csv():
    """``compare_csv`` of ``perfbench/run.py``, the benchmark's golden
    tolerance, loaded by path without writing bytecode beside it."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_run", ROOT / "perfbench" / "run.py")
    bench = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = bench      # its dataclasses look it up
    write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(bench)
    finally:
        sys.dont_write_bytecode = write
    return bench.compare_csv


compare_csv = _load_compare_csv()


@pytest.mark.parametrize("golden,base,overrides", [
    ("linear", "linear_uniform.ini", {}),
    ("afv_smoke", "convertible.ini", {"n_elements": 128, "n_tau": 100}),
])
def test_price_reproduces_the_committed_outputs(tmp_path, golden, base,
                                                overrides):
    out = tmp_path / "out"
    cfg = _config(tmp_path, base, **overrides)
    assert main(["price", "--config", str(cfg), "--out", str(out)]) == 0
    for name in ("surface.csv", "slice_t0.csv", "greeks.csv"):
        assert compare_csv(out / name, ROOT / "out" / golden / name) is None


def test_linear_ladder_reproduces_its_first_two_rungs(tmp_path):
    cfg = _config(tmp_path, "linear_uniform.ini")
    cp = configparser.ConfigParser(interpolation=None)
    cp.read(cfg)
    cp["ladder"]["rungs"] = "32:60000, 64:60000"
    with open(cfg, "w") as fh:
        cp.write(fh)
    out = tmp_path / "out"
    assert main(["converge", "--config", str(cfg), "--out", str(out)]) == 0
    # the committed ladder's first two rows: errors 1.847934613 and
    # 0.5050145881 against the closed form
    ref = tmp_path / "convergence.csv"
    lines = (ROOT / "out" / "linear" / "convergence.csv").read_text()
    ref.write_text("".join(lines.splitlines(keepends=True)[:3]))
    assert compare_csv(out / "convergence.csv", ref) is None


def test_refined_ladder_reproduces_its_error_column(tmp_path):
    # kink-aligned knots with interpolated initial data: the error against
    # the closed form falls by 775, 8.9 and 14.9 from rung to rung
    out = tmp_path / "out"
    cfg = ROOT / "configs" / "refined.ini"
    assert main(["converge", "--config", str(cfg), "--out", str(out)]) == 0
    _, rows = _read(out / "convergence.csv")
    assert [(int(r[0]), int(r[1])) for r in rows] == \
        [(16, 64), (32, 256), (64, 1024), (128, 4096)]
    errors = [float(r[3]) for r in rows]
    assert errors == pytest.approx(
        [1.344904488e-2, 1.735157561e-5, 1.954591321e-6, 1.308967548e-7],
        rel=1e-6)
    # the second rung is the grid price runs on
    assert abs(float(rows[1][2]) - 10.450583572) < 1e-4


def _refined_call_errors(tmp_path, rungs, **overrides):
    """The error column of ``converge`` on ``configs/refined.ini`` with
    the given rungs and [discretization] overrides, against the closed
    form."""
    out = tmp_path / "out"
    cfg = _config(tmp_path, "refined.ini", **{"ladder.rungs": rungs},
                  **overrides)
    assert main(["converge", "--config", str(cfg), "--out", str(out)]) == 0
    return [float(r[3]) for r in _read(out / "convergence.csv")[1]]


def test_refined_call_off_centre_prices_to_its_closed_form(tmp_path):
    # the default domain moved up by 2.5 puts the strike at xi = 0.143;
    # grading both sides by the shorter one's ratio gave an error of 7.39
    a, b = LelandParams(0.05, 0.2, 100.0, 1.0).domain()
    [error] = _refined_call_errors(tmp_path, "32:256", x_min=a + 2.5,
                                   x_max=b + 2.5)
    assert error < 1e-4


@pytest.mark.parametrize("degree,bound", [(2, 2e-5), (4, 2e-6), (5, 2e-6)])
def test_refined_call_converges_at_every_degree(tmp_path, degree, bound):
    # the kink is a knot of multiplicity p: quadratics run (they were a
    # config error), and degrees 4 and 5 no longer stall near 3e-5 and
    # 5e-5 at 64 x 1024
    [error] = _refined_call_errors(tmp_path, "64:1024", degree=degree)
    assert error < bound


def test_every_invariant_check_passes():
    failed = [r.line() for r in run_checks() if not r.passed]
    assert not failed, failed


SMALL = {"n_elements": 32, "n_tau": 20}
TINY = {"n_elements": 16, "n_tau": 10}


@pytest.mark.parametrize("verb,base,overrides,args", [
    ("price", "convertible.ini", {**SMALL, "degree": 1}, []),
    ("price", "convertible.ini", {**SMALL, "n_tau": 0}, []),
    ("price", "convertible.ini", {"n_elements": 64, "n_tau": 1}, []),
    ("price", "convertible.ini", {**SMALL, "n_tau": 2}, []),
    ("converge", "convertible.ini", {**SMALL, "ladder.rungs": "0:10"}, []),
    ("converge", "leland_ladder.ini", {**SMALL, "ladder.rungs": "32:20",
                                       "ladder.reference": "0:10"}, []),
    # ... or was silently ignored: a call window that opens and closes on
    # one date
    ("price", "convertible.ini", {**SMALL,
                                  "model.call_window": "3.0:3.0:101"}, []),
    # ... or ended in a traceback: a reference run on one cell
    ("converge", "leland_ladder.ini", {**SMALL, "ladder.rungs": "32:20",
                                       "ladder.reference": "1:10"}, []),
    # ... or ended in a traceback after the whole solve: an output path
    # below a file
    ("converge", "linear_uniform.ini", {"ladder.rungs": "32:20"},
     ["--out", "{tmp}/two.txt/sub"]),
    # an output path that is a file, caught before the leland ladder's
    # full P1 reference runs
    ("converge", "leland_ladder.ini", {"ladder.rungs": "32:20"},
     ["--out", "{tmp}/two.txt"]),
    # the kink is derived from the model, so its old key is unknown
    ("price", "refined.ini", {"kink_xi": 0.5}, []),
    # ... or ended in a traceback: an empty reference; or dropped all but
    # the first of two reference pairs
    ("converge", "leland_ladder.ini", {"ladder.rungs": "32:20",
                                       "ladder.reference": ""}, []),
    ("converge", "leland_ladder.ini", {"ladder.rungs": "32:20",
                                       "ladder.reference":
                                       "32:40, 4096:20480"}, []),
    # ... or ran: a float that is not finite, and a march of no steps
    ("price", "convertible.ini", {**SMALL, "x_min": "-inf"}, []),
    ("price", "convertible.ini", {**SMALL, "model.sigma": "inf"}, []),
    ("price", "convertible.ini", {**SMALL, "model.rate": "nan"}, []),
    ("price", "convertible.ini", {**SMALL, "model.newton_tol": "nan"}, []),
    ("price", "convertible.ini", {**SMALL,
                                  "model.call_window": "2:5:nan"}, []),
    ("price", "convertible.ini", {**SMALL, "model.coupons": "0.5:inf"}, []),
    ("price", "linear_uniform.ini", {**SMALL, "theta": "nan"}, []),
    ("price", "linear_uniform.ini", {**SMALL,
                                     "experiment.probe_s": "inf"}, []),
    ("converge", "leland_ladder.ini", {"ladder.reference": "64:0"}, []),
    ("converge", "linear_uniform.ini", {"ladder.rungs": "32:0"}, []),
    # ... or ended in a traceback after the whole solve: an output path
    # that is a file, lies below one, or is empty
    ("price", "convertible.ini", SMALL, ["--out", "{tmp}/two.txt"]),
    ("price", "linear_uniform.ini", SMALL, ["--out", "{tmp}/two.txt/sub"]),
    ("price", "linear_uniform.ini", SMALL, ["--out", ""]),
    # ... or ran and priced: a negative coupon, a negative call price
    ("price", "convertible.ini", {**SMALL,
                                  "model.coupons": "0.5:-4, 5.0:4"}, []),
    ("price", "convertible.ini", {**SMALL,
                                  "model.call_window": "2.0:5.0:-110"}, []),
])
def test_bad_input_is_a_config_error_with_no_output(tmp_path, capsys, verb,
                                                    base, overrides, args):
    out = tmp_path / "out"
    out.mkdir()
    (tmp_path / "two.txt").write_text("1.0\n1.0\n")
    cfg = _config(tmp_path, base, **overrides)
    rc = main([verb, "--config", str(cfg), "--out", str(out),
               *(a.format(tmp=tmp_path) for a in args)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("config error:") and err.count("\n") == 1
    assert list(out.iterdir()) == []
    assert (tmp_path / "two.txt").read_text() == "1.0\n1.0\n"


# (verb, base config, overrides as for _config, extra args, the key whose
# line the error names)
@pytest.mark.parametrize("verb,base,overrides,args,key", [
    ("price", "convertible.ini", {**SMALL, "experiment.probe_s": 1000}, [],
     "probe_s"),
    ("price", "convertible.ini", {**SMALL, "experiment.probe_s": 0.1}, [],
     "probe_s"),
    ("price", "linear_uniform.ini", {**SMALL, "experiment.probe_s": 5000},
     [], "probe_s"),
    ("converge", "convertible.ini", {**SMALL, "experiment.probe_s": 1000},
     [], "probe_s"),
    # refined knots on one element, which ran on two spans after a
    # division by zero
    ("price", "refined.ini", {"n_elements": 1}, [], "n_elements"),
    # settings whose ValueError used to surface as a traceback; the kink
    # lies below x_min
    ("price", "refined.ini", {"x_min": 5, "x_max": 6}, [], "x_min"),
    ("price", "convertible.ini", {**SMALL, "theta": 2}, [], "theta"),
    ("price", "convertible.ini", {**SMALL, "rannacher_steps": -1}, [],
     "rannacher_steps"),
    ("price", "convertible.ini", {**SMALL, "x_min": 2, "x_max": 2}, [],
     "x_min"),
    # ... or ended in a traceback: a grid with no interior basis function
    ("converge", "leland_ladder.ini", {"degree": 1, "ladder.rungs": "1:20",
                                       "ladder.reference": "1:10"}, [],
     "rungs"),
    # ... or reached stock prices whose squares leave the range of a
    # double: it ran with infinite Greeks, or ended in a traceback
    ("price", "leland_ladder.ini", {**TINY, "x_min": -600}, [], "x_min"),
    ("price", "leland_ladder.ini", {**TINY, "x_min": -1e4}, [], "x_min"),
    ("price", "leland_ladder.ini", {**TINY, "x_min": -1e308}, [], "x_min"),
    ("price", "leland_ladder.ini", {**TINY, "x_max": 360}, [], "x_max"),
    # each verb rejects the other's grid too: price ran with a rung that
    # cannot run, and converge with such a [discretization] grid
    ("price", "refined.ini", {"ladder.rungs": "1:64, 32:256"}, [], "rungs"),
    ("converge", "refined.ini", {"n_elements": 1}, [], "n_elements"),
    # what a verb or its oracle rejects named only the path: price's
    # Greeks need degree >= 2, and theta a pair of levels (every coupon
    # and the put land on level 1) ...
    ("price", "convertible.ini", {**SMALL, "degree": 1}, [], "degree"),
    ("price", "convertible.ini", {**SMALL, "n_tau": 1}, [], "n_tau"),
    # ... and a P1 reference of one element
    ("converge", "leland_ladder.ini", {"ladder.rungs": "32:20",
                                       "ladder.reference": "1:10"}, [],
     "reference"),
])
def test_a_setting_that_cannot_run_is_a_config_error_at_its_line(
        tmp_path, capsys, monkeypatch, verb, base, overrides, args, key):
    # each is rejected before any solve
    import igafin.cli as cli

    def no_solve(*args, **kwargs):
        raise AssertionError("a check solved")

    for name in ("run", "p1fem_solve"):
        monkeypatch.setattr(cli, name, no_solve)
    out = tmp_path / "out"
    cfg = _config(tmp_path, base, **overrides)
    rows = cfg.read_text().split("\n")
    [line] = [no for no, row in enumerate(rows, start=1)
              if row.startswith(f"{key} = ")]
    assert main([verb, "--config", str(cfg), "--out", str(out), *args]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {cfg}:{line}: ")
    assert err.count("\n") == 1
    assert not out.exists()


def test_a_config_that_is_not_utf8_is_a_config_error(tmp_path, capsys):
    # it used to end in a UnicodeDecodeError traceback with rc 1
    cfg = tmp_path / "latin1.ini"
    cfg.write_bytes(b"# caf\xe9\n"
                    + (ROOT / "configs" / "linear_uniform.ini").read_bytes())
    out = tmp_path / "out"
    assert main(["price", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {cfg}: ")
    assert "utf-8" in err and err.count("\n") == 1
    assert not out.exists()


def test_unknown_key_is_a_config_error_at_its_line(tmp_path, capsys):
    cfg = tmp_path / "bad.ini"
    cfg.write_text((ROOT / "configs" / "linear_uniform.ini").read_text()
                   .replace("[model]\n", "[model]\nvolatility = 0.2\n"))
    line = cfg.read_text().splitlines().index("volatility = 0.2") + 1
    out = tmp_path / "out"
    assert main(["price", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {cfg}:{line}: unknown key "
                          "'volatility' in [model]")
    assert not out.exists()


@pytest.mark.parametrize("key,value", [
    # refined knots take one fixed grading
    ("cluster_ratio", "0.7"),
    # the weights are never fitted ...
    ("weight_source", "calibrated"),
    # ... nor read: every run takes unit weights
    ("weights_file", "weights.txt"),
    # price keeps every (n_tau // 50)-th level
    ("store_every", "2"),
])
def test_retired_key_is_an_unknown_key_at_its_line(tmp_path, capsys, key,
                                                   value):
    cfg = _config(tmp_path, "refined.ini", **{key: value})
    line = cfg.read_text().splitlines().index(f"{key} = {value}") + 1
    out = tmp_path / "out"
    assert main(["price", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"config error: {cfg}:{line}: unknown key '{key}' in "
        "[discretization]\n")
    assert not out.exists()


LINEAR = (ROOT / "configs" / "linear_uniform.ini").read_text()
MODELS = "('linear-bs', 'leland', 'afv')"


def _assert_config_error_at(tmp_path, capsys, verb, base, old, new, at,
                            message):
    """``verb`` on ``base`` with ``old`` replaced by ``new`` is rc 2 with
    one stderr line, ``message`` at the last line ``at`` (the path alone if
    None), and writes nothing."""
    # written as raw text: configparser would rewrite the sections
    text = base.replace(old, new)
    assert text != base
    cfg = tmp_path / "bad.ini"
    cfg.write_text(text)
    out = tmp_path / "out"
    assert main([verb, "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    # configparser numbers the lines between "\n"s, and a repeated
    # section is named at its last line
    lines = text.split("\n")
    where = f"{cfg}:{len(lines) - lines[::-1].index(at)}" if at else str(cfg)
    assert err.startswith(f"config error: {where}: {message}")
    assert err.count("\n") == 1
    assert not out.exists()


# (verb, text replaced in linear_uniform.ini, its replacement, the line the
# error names or None, the message)
@pytest.mark.parametrize("verb,old,new,at,message", [
    # a repeated key or section used to name the path and the line twice
    ("price", "n_tau = 256\n", "n_tau = 256\nn_tau = 64\n", "n_tau = 64",
     "parse error: repeated key 'n_tau' in [discretization]\n"),
    ("price", "[ladder]", "[model]\n[ladder]", "[model]",
     "parse error: repeated section [model]\n"),
    # configparser's other errors spanned two and three lines, the first
    # with no line in the prefix
    ("price", "knot_mode = uniform\n",
     "knot_mode = uniform\nthis line has no delimiter\n",
     "this line has no delimiter",
     "parse error: no '=' or ':' in 'this line has no delimiter'\n"),
    ("price", "[experiment]\n", "n_tau = 64\n[experiment]\n", "n_tau = 64",
     "parse error: no section header before 'n_tau = 64'\n"),
    ("price", "[ladder]", "[solver]", "[solver]",
     "unknown section [solver]"),
    # --out alone names the output directory
    ("price", "[ladder]", "[output]\ndir = x\n\n[ladder]", "[output]",
     "unknown section [output]\n"),
    # a form feed ends no line: it was counted as one, one line too far
    ("price", "[model]\n", "[model]\n# a form feed\f in a comment\n"
     "volatility = 0.2\n", "volatility = 0.2",
     "unknown key 'volatility' in [model]\n"),
    ("price", "n_tau = 256\n", "", "[discretization]",
     "missing key 'n_tau' in [discretization]"),
    # a setting that cannot run is named at its section's line when its
    # key is left out: the default probe price of 100 lies below S(5)
    ("price", "probe_s = 100\n\n[discretization]\n",
     "\n[discretization]\nx_min = 5\n", "[experiment]",
     "probe_s = 100 lies outside the computational domain ["),
    ("price", "model = linear-bs", "model = heston", "model = heston",
     f"bad value for 'model': 'heston' (must be one of {MODELS})"),
    ("price", "maturity = 1\n", "maturity = 1\nhazard_rate = 0.02\n",
     "hazard_rate = 0.02",
     "key 'hazard_rate' does not apply to model 'linear-bs'"),
    ("price", "maturity = 1\n", "maturity = 1\nleland_number = 0.5\n",
     "leland_number = 0.5", "linear-bs requires leland_number = 0"),
    ("price", "knot_mode = uniform", "knot_mode = graded",
     "knot_mode = graded", "bad value for 'knot_mode': 'graded' (must be "
     "one of ('uniform', 'refined'))"),
    # converge without rungs names the [ladder] line, and with no [ladder]
    # section the path alone
    ("converge", "rungs = 32:60000, 64:60000, 128:60000, 256:60000\n", "",
     "[ladder]", "converge needs a [ladder] section with rungs"),
    ("converge", "[ladder]\nrungs = 32:60000, 64:60000, 128:60000, "
     "256:60000\n", "", None, "converge needs a [ladder] section with rungs"),
    # the counts name their own line, not their section's
    ("price", "n_elements = 256", "n_elements = 0", "n_elements = 0",
     "bad value for 'n_elements': '0' (must be >= 1)"),
    ("price", "degree = 3", "degree = -1", "degree = -1",
     "bad value for 'degree': '-1' (must be >= 1)"),
    # sections are matched as written: each of these was read as the
    # lower-case section by one rule and missed by the other, so the run
    # used the default output directory, found no rungs or named a
    # missing key
    ("price", "[ladder]", "[Output]", "[Output]",
     "unknown section [Output]"),
    ("converge", "[ladder]", "[Ladder]", "[Ladder]",
     "unknown section [Ladder]"),
    ("price", "[model]", "[Model]", "[Model]", "unknown section [Model]"),
    # [DEFAULT] is no section of its own: configparser copied its keys
    # into every section, an unknown key with no line
    ("price", "[experiment]", "[DEFAULT]\nn_tau = 64\n\n[experiment]",
     "[DEFAULT]", "unknown section [DEFAULT]"),
    # an indented key under its section header is a key: its errors had no
    # line, as the line scan took it for a continuation
    ("price", "rate = 0.05", "  rate = abc", "  rate = abc",
     "bad value for 'rate': 'abc' (could not convert"),
    ("price", "[model]\n", "[model]\n  volatility = 0.2\n",
     "  volatility = 0.2", "unknown key 'volatility' in [model]\n"),
    # it was said to have no '=' or ':'
    ("price", "[model]\n", "[model]\n= 0.2\n", "= 0.2",
     "parse error: no key in '= 0.2'\n"),
    # a volatility whose square leaves the range of a double ended in an
    # OverflowError or a ZeroDivisionError traceback
    ("price", "sigma = 0.2", "sigma = 1e200", "[model]",
     "invalid [model] parameters: sigma = 1e+200: sigma^2 must be a "
     "positive, finite double\n"),
    ("price", "sigma = 0.2", "sigma = 1e-200", "[model]",
     "invalid [model] parameters: sigma = 1e-200: sigma^2 must be a "
     "positive, finite double\n"),
])
def test_bad_config_text_is_a_config_error_at_its_line(
        tmp_path, capsys, verb, old, new, at, message):
    _assert_config_error_at(tmp_path, capsys, verb, LINEAR, old, new, at,
                            message)


CONVERTIBLE = (ROOT / "configs" / "convertible.ini").read_text().replace(
    "n_elements = 512", "n_elements = 32").replace("n_tau = 400", "n_tau = 20")


# (text replaced in convertible.ini at 32 x 20, its replacement, the message
# at the [model] line)
@pytest.mark.parametrize("old,new,message", [
    # sigma^2 raised an OverflowError after the march had started
    ("sigma = 0.2", "sigma = 1e200",
     "sigma = 1e+200: sigma^2 must be a positive, finite double\n"),
    # k S_0 overflows, so the kink's log met 0: a "math domain error" at
    # the x_min line
    ("conversion_ratio = 1\ns_initial = 100",
     "conversion_ratio = 1e300\ns_initial = 1e10",
     "conversion_ratio = 1e+300 and s_initial = 1e+10 put the payoff kink "
     "at ln(0)\n"),
])
def test_bad_bond_parameters_are_a_config_error_at_the_model_line(
        tmp_path, capsys, old, new, message):
    _assert_config_error_at(tmp_path, capsys, "price", CONVERTIBLE, old, new,
                            "[model]", "invalid [model] parameters: "
                            + message)


# a coupon entry is read as a rung is, each part converted as it is
# unpacked: a part that is no finite number is named before a count of
# parts other than two
@pytest.mark.parametrize("entry,reason", [
    ("x", "could not convert string to float: ' x'"),
    ("inf", "not a finite number"),
    ("3:4:", "could not convert string to float: ''"),
    ("1.0:4:1", "too many values to unpack (expected 2)"),
])
def test_a_bad_coupon_entry_is_a_config_error_at_its_line(tmp_path, capsys,
                                                          entry, reason):
    line = f"coupons = 0.5:4, {entry}, 1.5:4, 2.0:4, 2.5:4,"
    raw = line[len("coupons = "):] + "\n3.0:4, 3.5:4, 4.0:4, 4.5:4, 5.0:4"
    _assert_config_error_at(
        tmp_path, capsys, "price", CONVERTIBLE,
        "coupons = 0.5:4, 1.0:4, 1.5:4, 2.0:4, 2.5:4,", line, line,
        f"bad value for 'coupons': {raw!r} ({reason})\n")


def _configparser_values(text):
    """The sections and values configparser reads from ``text`` with the
    rules the config reader keeps, or None where it refuses the text."""
    cp = configparser.ConfigParser(interpolation=None, default_section="")
    try:
        cp.read_string(text)
    except configparser.Error:
        return None
    return {name: dict(cp[name]) for name in cp.sections()}


def _assert_reads_as_configparser(text):
    """Assert that the config reader reads ``text`` as configparser does,
    and refuses it where configparser does; True where both read it."""
    expected = _configparser_values(text)
    if expected is None:
        with pytest.raises(ConfigError, match="parse error: "):
            _read_ini(text, "t.ini")
        return False
    ini, lines = _read_ini(text, "t.ini")
    assert ini == expected
    # every section and key has a line, and that line reads it
    assert set(lines) == {(name, key) for name, keys in ini.items()
                          for key in ("", *keys)}
    rows = text.split("\n")
    for (name, key), no in lines.items():
        assert rows[no - 1].strip().lower().startswith(
            key if key else f"[{name}]".lower())
    return True


# headers, "=" and ":" keys, indented keys and continuations, tabs, blank
# and comment lines, and lines that are no part of an INI file
INI_LINES = [
    "[a]", "[b]", "[DEFAULT]", "[A]", "[d] junk", "  [a]", "[]", "x = 1",
    "X: 2", "y =", "y = a = b", "z : c:d", "=v", " : v", "  x = 3",
    "\tw = 4", "  cont", "\tcont", "    deep", "  ; in a value", "# note",
    "; note", "", "  ", "\t", "junk", "k = v ; kept", "\x0cff = 1",
]


def test_seeded_texts_read_as_configparser_reads_them():
    rng = np.random.default_rng(1)
    read = 0
    for _ in range(2000):
        picks = rng.integers(len(INI_LINES), size=rng.integers(1, 10))
        head = ["[a]"] if rng.random() < 0.8 else []
        read += _assert_reads_as_configparser(
            "\n".join(head + [INI_LINES[i] for i in picks]))
    # both branches are exercised
    assert 200 < read < 1800


def test_put_window_none_is_the_bond_without_a_put(tmp_path):
    from igafin.cli import parse_config
    cfg = _config(tmp_path, "convertible.ini", **{"model.put_window": "none"})
    params = parse_config(str(cfg)).params
    assert params.put_window is None
    assert params.call_window == (2.0, 5.0, 110.0)


def test_a_float_that_is_not_finite_is_named_at_its_line(tmp_path, capsys):
    cfg = _config(tmp_path, "convertible.ini", **{"model.rate": "nan"})
    line = cfg.read_text().splitlines().index("rate = nan") + 1
    assert main(["price", "--config", str(cfg), "--out",
                 str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        f"config error: {cfg}:{line}: bad value for 'rate': 'nan' "
        "(not a finite number)\n")


# the benchmark's smoke configs too, which only its own slow tests run
@pytest.mark.parametrize("name", sorted(
    path.relative_to(ROOT).as_posix() for pattern in ("configs/*.ini",
                                                      "perfbench/smoke/*.ini")
    for path in ROOT.glob(pattern)))
def test_every_shipped_config_passes_the_checks_before_solving(name,
                                                               monkeypatch):
    import igafin.cli as cli

    def no_solve(*args):
        raise AssertionError("a check solved")

    monkeypatch.setattr(cli, "run", no_solve)
    cfg = cli.parse_config(str(ROOT / name))
    check_greeks(cfg.params, cfg.degree, cfg.n_tau)
    # and the config reader reads it as configparser does
    _assert_reads_as_configparser((ROOT / name).read_text())


def test_refined_knots_name_a_kink_outside_the_domain(tmp_path, capsys):
    cfg = _config(tmp_path, "refined.ini", x_min=5, x_max=6)
    assert main(["price", "--config", str(cfg), "--out",
                 str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "payoff kink x = 4.60517, which lies outside (x_min, x_max) = " \
        "(5, 6)" in err


def test_refined_convertible_puts_its_triple_knot_at_the_kink(
        tmp_path, monkeypatch):
    import igafin.cli as cli
    build, built = cli.build_discretization, []

    def recorded(*args):
        built.append(build(*args))
        return built[-1]

    monkeypatch.setattr(cli, "build_discretization", recorded)
    cfg = _config(tmp_path, "convertible.ini", n_elements=32, n_tau=20,
                  knot_mode="refined")
    assert main(["price", "--config", str(cfg), "--out",
                 str(tmp_path / "out")]) == 0
    [disc] = built
    params = cli.parse_config(str(cfg)).params
    # conversion k S meets the redemption F + c_T = 104
    assert params.kink == pytest.approx(math.log(1.04), rel=1e-15)
    xi = disc.pmap.to_parameter(params.kink)
    assert xi == pytest.approx(0.7549, abs=1e-4)
    assert np.count_nonzero(disc.basis.knots.values == xi) == 3


def test_afv_keys_left_out_take_the_parameter_defaults(tmp_path):
    from igafin.cli import parse_config
    cp = configparser.ConfigParser(interpolation=None)
    cp.read(ROOT / "configs" / "convertible.ini")
    for key in ("hazard_rate", "recovery", "eta", "conversion_ratio", "rho",
                "newton_tol"):
        cp.remove_option("model", key)
    path = tmp_path / "defaults.ini"
    with open(path, "w") as fh:
        cp.write(fh)
    p = parse_config(str(path)).params
    assert (p.hazard_rate, p.recovery, p.eta, p.conversion_ratio) == \
        (0.0, 0.0, 0.0, 1.0)
    assert (p.rho, p.newton_tol) == (1e6, 1e-6)


def test_newton_failure_is_a_solver_failure_with_no_output(tmp_path, capsys):
    # a default intensity of 1e308 overflows the first level's load, so
    # Newton's first iterate is NaN and its residual is not finite
    out = tmp_path / "out"
    cfg = _config(tmp_path, "convertible.ini", **SMALL,
                  **{"model.hazard_rate": "1e308"})
    assert main(["price", "--config", str(cfg), "--out", str(out)]) == 3
    assert capsys.readouterr().err == (
        "solver failure: penalty Newton failed to converge at time level 1: "
        "1 iterations, residual nan\n")
    assert not out.exists()


def test_newton_reuses_the_operator_factors_without_penalty(tmp_path,
                                                            monkeypatch):
    # 154 of the 705 Newton Jacobians on this config have no active
    # penalty and reuse the factors of the theta operator; the other 551
    # are 153 distinct matrices, and those met again among the last four
    # reuse their factors too, leaving 267 Jacobian factorisations beside
    # the 4 of the theta operators (2 operators x 2 thetas)
    import igafin.linsolve as linsolve
    init, count = linsolve.BandedLU.__init__, [0]

    def counted(self, mat):
        count[0] += 1
        init(self, mat)

    monkeypatch.setattr(linsolve.BandedLU, "__init__", counted)
    cfg = ROOT / "configs" / "convertible.ini"
    assert main(["price", "--config", str(cfg), "--out",
                 str(tmp_path / "out")]) == 0
    assert count[0] == 271


def test_surface_keeps_the_configured_levels(tmp_path):
    # every (n_tau // 50)-th level, and the mandatory ones
    out = tmp_path / "out"
    cfg = _config(tmp_path, "convertible.ini", n_elements=64, n_tau=400)
    assert main(["price", "--config", str(cfg), "--out", str(out)]) == 0
    _, rows = _read(out / "surface.csv")
    assert sorted({int(row[0]) for row in rows}) == \
        sorted(set(range(0, 401, 8)) | {398, 399})


@pytest.mark.parametrize("base,line", [
    ("convertible.ini", "U(100) = 127.6171"),
    ("leland_ladder.ini", "V(100) = 19.4156"),
])
def test_price_prints_one_line_the_value_at_the_probe(tmp_path, capsys,
                                                      base, line):
    # the spline evaluated at probe_s; a second line used to give the
    # value at the Greville point nearest the probe (S = 90.4837 on the
    # Leland grid), a row slice_t0.csv already holds
    cfg = _config(tmp_path, base, **SMALL)
    assert main(["price", "--config", str(cfg), "--out",
                 str(tmp_path / "out")]) == 0
    assert capsys.readouterr().out == line + "\n"


def test_ladder_reference_marches_with_the_configured_scheme(tmp_path,
                                                             monkeypatch):
    import igafin.cli as cli
    solve, schemes = cli.p1fem_solve, []

    def recorded(params, x_min, x_max, n_elements, scheme):
        schemes.append(scheme)
        return solve(params, x_min, x_max, n_elements, scheme)

    monkeypatch.setattr(cli, "p1fem_solve", recorded)
    cfg = _config(tmp_path, "leland_ladder.ini", theta=1, rannacher_steps=0,
                  **{"ladder.rungs": "32:20", "ladder.reference": "64:40"})
    assert main(["converge", "--config", str(cfg), "--out",
                 str(tmp_path / "out")]) == 0
    assert schemes == [SchemeConfig(n_steps=40, theta=1.0, rannacher_steps=0,
                                    store_every=0)]


def test_ladder_reference_curve_keeps_only_what_it_reads(tmp_path,
                                                         monkeypatch):
    # the P1 oracle holds its basis, map and final level: its Galerkin
    # system, collocation band and other stored levels are freed before
    # the rungs, and its values are the bits of the whole run's
    import igafin.cli as cli
    cfg = cli.parse_config(str(_config(
        tmp_path, "leland_ladder.ini",
        **{"ladder.rungs": "32:20", "ladder.reference": "64:40"})))
    disc, surf = cli._build(cfg, 32, cli._scheme(cfg, 20))
    grid = cli._misfit_prices(cfg.params, disc.greville_x,
                              surf.tau(surf.n_steps))
    assert grid.size
    solve, freed, expected = cli.p1fem_solve, [], []

    def recorded(params, x_min, x_max, n_elements, scheme):
        disc, surf = solve(params, x_min, x_max, n_elements, scheme)
        expected.append(value_curve(params, disc, surf, grid))
        freed.extend(weakref.ref(obj) for obj in (disc.system, disc.colloc))
        freed.extend(weakref.ref(level["vhat"])
                     for n, level in surf.levels.items() if n != surf.n_steps)
        return disc, surf

    monkeypatch.setattr(cli, "p1fem_solve", recorded)
    curve = cli._oracle_curve(cfg)
    gc.collect()
    assert len(freed) == 5
    assert [ref() for ref in freed] == [None] * 5
    assert curve(grid).tobytes() == expected[0].tobytes()


def test_ladder_rungs_keep_only_their_final_slices(tmp_path, monkeypatch):
    import igafin.cli as cli
    march, schemes = cli.run, []

    def recorded(params, disc, scheme):
        schemes.append(scheme)
        return march(params, disc, scheme)

    monkeypatch.setattr(cli, "run", recorded)
    cfg = _config(tmp_path, "leland_ladder.ini",
                  **{"ladder.rungs": "16:10, 32:20", "ladder.reference": None})
    assert main(["converge", "--config", str(cfg),
                 "--out", str(tmp_path / "out")]) == 0
    assert schemes == [SchemeConfig(n_steps=n, theta=0.5, rannacher_steps=2,
                                    store_every=0) for n in (10, 20)]


def test_leland_ladder_converges_to_its_closed_form(tmp_path):
    # Black-Scholes at sigma sqrt(1 + Le) is the call's exact price, so the
    # ladder needs no reference run; the error contracts by about 4 per
    # rung at dtau/dx^2 = 0.1
    out = tmp_path / "out"
    cfg = _config(tmp_path, "leland_ladder.ini", **{"ladder.reference": None})
    assert main(["converge", "--config", str(cfg), "--out", str(out)]) == 0
    _, rows = _read(out / "convergence.csv")
    assert [float(r[3]) for r in rows] == pytest.approx(
        [9.860704404e-2, 2.516639804e-2, 6.329264155e-3], rel=1e-6)
    assert min(float(r[4]) for r in rows[1:]) > 3.9


def test_a_misfit_with_nothing_to_sample_is_a_config_error(
        tmp_path, capsys, monkeypatch):
    # every price lies above three times the strike, where the P1 misfit
    # samples, so the error column read 0, 0
    import igafin.cli as cli

    def no_solve(*args, **kwargs):
        raise AssertionError("a check solved")

    for name in ("run", "p1fem_solve"):
        monkeypatch.setattr(cli, name, no_solve)
    cfg = _config(tmp_path, "linear_uniform.ini", x_min=math.log(400.0),
                  x_max=math.log(800.0), **{
                      "experiment.probe_s": 500,
                      "ladder.rungs": "32:100, 64:400",
                      "ladder.reference": "256:1600"})
    out = tmp_path / "out"
    assert main(["converge", "--config", str(cfg), "--out", str(out)]) == 2
    line = cfg.read_text().split("\n").index(f"x_min = {math.log(400.0)}")
    assert capsys.readouterr() == ("", (
        f"config error: {cfg}:{line + 1}: the p1 misfit has nothing to "
        "sample: every price at t = 0 lies above three times the payoff "
        "kink\n"))
    assert not out.exists()


CONVERTIBLE_LADDER = {**SMALL, "ladder.rungs": "32:20, 64:40",
                      "ladder.reference": "128:80"}


def test_convertible_converges_to_its_p1_reference(tmp_path):
    # P1 runs the bond through the same march as the cubic space; converge
    # measures each rung's misfit to the run on the [ladder] reference
    # grid, up to three times the conversion kink
    cfg = _config(tmp_path, "convertible.ini", **CONVERTIBLE_LADDER)
    out = tmp_path / "out"
    assert main(["converge", "--config", str(cfg), "--out", str(out)]) == 0
    _, rows = _read(out / "convergence.csv")
    assert [float(r[3]) for r in rows] == pytest.approx(
        [5.994080343, 2.122629981], rel=1e-6)


@pytest.mark.parametrize("base,overrides,errors", [
    # a config that names a [ladder] reference is measured against P1 ...
    ("leland_ladder.ini", {"ladder.rungs": "32:20, 64:80",
                           "ladder.reference": "128:320"},
     [8.012984498, 3.145831899]),
    # ... else a model with a closed form against it ...
    ("linear_uniform.ini", {"ladder.rungs": "32:20, 64:40"},
     [1.845459698, 0.5041762591]),
    ("refined.ini", {"ladder.rungs": "16:64, 32:256"},
     [1.344904488e-2, 1.735157561e-5]),
    # ... else against nothing
    ("convertible.ini", {"ladder.rungs": "32:20, 64:40"}, None),
])
def test_converge_defaults_to_each_shipped_ladders_oracle(
        tmp_path, base, overrides, errors):
    out = tmp_path / "out"
    cfg = _config(tmp_path, base, **overrides)
    assert main(["converge", "--config", str(cfg), "--out", str(out)]) == 0
    column = [r[3] for r in _read(out / "convergence.csv")[1]]
    if errors is None:
        assert column == ["", ""]
    else:
        assert [float(e) for e in column] == pytest.approx(errors, rel=1e-6)


def test_failed_check_makes_validate_rc_1(capsys, monkeypatch):
    import igafin.checks as checks
    results = run_checks()
    results[3] = replace(results[3], passed=False)
    monkeypatch.setattr(checks, "run_checks", lambda: results)
    assert main(["validate"]) == 1
    out = capsys.readouterr().out
    assert out.count("FAIL ") == 1
    assert f"{len(results) - 1}/{len(results)} invariant checks passed" in out


@pytest.mark.parametrize("argv,message", [
    (["validate", "--config", "missing.ini"], "unrecognized arguments: "
     "--config"),
    (["validate", "--oracle", "fdm"], "unrecognized arguments: --oracle"),
    # converge's oracle is the config's: its [ladder] reference, else the
    # model's closed form
    (["price", "--config", "{cfg}", "--out", "{out}", "--oracle", "fdm"],
     "unrecognized arguments: --oracle"),
    (["price", "--config", "{cfg}", "--out", "{out}", "--oracle", "p1"],
     "unrecognized arguments: --oracle"),
    (["price", "--config", "{cfg}", "--out", "{out}", "--oracle",
      "closed-form"], "unrecognized arguments: --oracle"),
    (["converge", "--config", "{cfg}", "--out", "{out}", "--oracle", "fdm"],
     "unrecognized arguments: --oracle"),
    (["converge", "--config", "{cfg}", "--out", "{out}", "--oracle", "p1"],
     "unrecognized arguments: --oracle"),
    (["converge", "--config", "{cfg}", "--out", "{out}", "--oracle",
      "closed-form"], "unrecognized arguments: --oracle"),
    (["validate", "--out", "{out}"], "unrecognized arguments: --out"),
    (["validate", "--probe-s", "100"], "unrecognized arguments: --probe-s"),
    # the probe price is the config's probe_s
    (["price", "--config", "{cfg}", "--out", "{out}", "--probe-s", "100"],
     "unrecognized arguments: --probe-s"),
    # --out is the one source of the output directory
    (["price", "--config", "{cfg}"],
     "the following arguments are required: --out"),
])
def test_a_flag_the_verb_does_not_read_is_a_usage_error(tmp_path, capsys,
                                                        argv, message):
    # both validate --config/--oracle cases used to exit 0 with the flag
    # ignored
    out = tmp_path / "out"
    cfg = _config(tmp_path, "convertible.ini", **SMALL)
    with pytest.raises(SystemExit) as exc:
        main([a.format(out=out, cfg=cfg) for a in argv])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def _run_cli(*argv):
    """The CLI in a new interpreter, as a user runs it."""
    return subprocess.run(
        [sys.executable, "-m", "igafin.cli", *map(str, argv)],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")})


def test_non_finite_convertible_is_a_solver_failure_with_no_output(
        tmp_path):
    # a default intensity of 1e308 overflows the first step; the run used
    # to print U(100) = nan and write all-NaN tables with rc 0, and then
    # numpy's overflow warnings ahead of its one-line message
    out = tmp_path / "out"
    cfg = _config(tmp_path, "convertible.ini", n_elements=64, n_tau=20,
                  **{"model.hazard_rate": 1e308})
    proc = _run_cli("price", "--config", cfg, "--out", out)
    assert proc.returncode == 3 and proc.stdout == ""
    assert proc.stderr.startswith("solver failure:")
    assert proc.stderr.count("\n") == 1
    assert not out.exists()


def test_non_finite_greeks_are_a_solver_failure_with_no_output(tmp_path):
    # conversion values near the largest double march to finite values,
    # but the gamma sums overflow at two prices; the run used to write
    # two inf cells into greeks.csv with rc 0, after numpy's two-line
    # overflow warning
    out = tmp_path / "out"
    cfg = _config(tmp_path, "convertible.ini", n_elements=256, n_tau=20,
                  **{"model.conversion_ratio": 1e300})
    proc = _run_cli("price", "--config", cfg, "--out", out)
    assert proc.returncode == 3 and proc.stdout == ""
    assert proc.stderr == ("solver failure: gamma is not finite at 2 of "
                           "259 stock prices\n")
    assert not out.exists()


def test_a_singular_factorisation_is_a_solver_failure_with_no_output(
        tmp_path):
    # at degree 40 on 16 elements the mass Cholesky of the Leland step
    # meets a zero pivot; the run used to exit 1, validate's code, after a
    # traceback
    out = tmp_path / "out"
    cfg = _config(tmp_path, "leland_ladder.ini", degree=40, n_elements=16,
                  n_tau=8)
    proc = _run_cli("price", "--config", cfg, "--out", out)
    assert proc.returncode == 3 and proc.stdout == ""
    assert proc.stderr == ("solver failure: singular system: zero pivot at "
                           "index 30\n")
    assert not out.exists()


def test_a_warning_is_one_stderr_line(tmp_path):
    # one step over the whole horizon trips the step-ratio guard of the
    # lagged transaction-cost term; Python printed it on two lines, the
    # second the source line that raised it
    out = tmp_path / "out"
    cfg = _config(tmp_path, "leland_ladder.ini", n_tau=1)
    proc = _run_cli("price", "--config", cfg, "--out", out)
    assert proc.returncode == 0
    assert proc.stderr.startswith("warning: time step dtau=")
    assert proc.stderr.endswith("the lagged transaction-cost term may "
                                "oscillate\n")
    assert proc.stderr.count("\n") == 1
    assert (out / "greeks.csv").exists()


def test_failure_while_the_surface_streams_leaves_no_file(tmp_path, capsys,
                                                          monkeypatch):
    # an OSError while a table is written is a configuration error of the
    # output path, rc 2 on one line; it used to escape main
    import igafin.cli as cli
    lines, written = cli._block_lines, []

    def failing(block, prefix=()):
        if len(written) == 3:
            raise OSError("disk full")
        written.append(prefix)
        return lines(block, prefix)

    monkeypatch.setattr(cli, "_block_lines", failing)
    out = tmp_path / "out"
    cfg = _config(tmp_path, "convertible.ini", **SMALL)
    assert main(["price", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"config error: cannot write {out / 'surface.csv'}: disk full\n")
    assert len(written) == 3
    assert not out.exists()


@pytest.mark.parametrize("fresh", [True, False])
def test_a_failed_last_table_removes_the_tables_written_before_it(
        tmp_path, capsys, monkeypatch, fresh):
    # surface.csv and slice_t0.csv are published before greeks.csv fails;
    # both go, and so does the output directory when the run made it
    import igafin.cli as cli
    seen = []

    def failing(path, *args, **kwargs):
        seen.extend(sorted(p.name for p in out.iterdir()))
        raise OSError("disk full")

    monkeypatch.setattr(cli, "write_greeks_csv", failing)
    out = tmp_path / "out"
    if not fresh:
        out.mkdir()
    cfg = _config(tmp_path, "convertible.ini", **SMALL)
    assert main(["price", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"config error: cannot write {out / 'greeks.csv'}: disk full\n")
    assert seen == ["slice_t0.csv", "surface.csv"]
    if fresh:
        assert not out.exists()
    else:
        assert list(out.iterdir()) == []


@pytest.mark.parametrize("verb,base,blocked,overrides", [
    ("price", "linear_uniform.ini", "greeks.csv", {"n_tau": 40}),
    ("converge", "linear_uniform.ini", "convergence.csv",
     {"ladder.rungs": "16:10, 32:20"}),
    ("price", "linear_uniform.ini", "surface.csv", {"n_tau": 40}),
    ("converge", "leland_ladder.ini", "convergence.csv",
     {"ladder.rungs": "16:10", "ladder.reference": "64:40"}),
])
def test_a_table_that_cannot_be_written_leaves_none_of_the_run(
        tmp_path, capsys, monkeypatch, verb, base, blocked, overrides):
    # a directory in the way of a table used to end in an
    # IsADirectoryError traceback with rc 1, beside a greeks.csv.tmp and
    # the tables published before it, and then, as rc 2, to be found only
    # after the whole solve; it is refused before any march
    import igafin.cli as cli
    import igafin.stepper as stepper

    def no_march(*args):
        raise AssertionError("marched before the output path was checked")

    monkeypatch.setattr(cli, "run", no_march)
    monkeypatch.setattr(stepper, "run", no_march)
    out = tmp_path / "out"
    (out / blocked / "inside").mkdir(parents=True)
    cfg = _config(tmp_path, base, n_elements=32, **overrides)
    assert main([verb, "--config", str(cfg), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"config error: cannot write {out / blocked}: "
                            "it is a directory\n")
    assert sorted(p.relative_to(out).as_posix() for p in out.rglob("*")) \
        == [blocked, f"{blocked}/inside"]


def test_a_failed_write_removes_the_directories_the_run_made(
        tmp_path, capsys, monkeypatch):
    # the run made a/ and a/b/ for its tables, and used to leave them
    import igafin.cli as cli

    def failing(path, *args):
        raise OSError("disk full")

    monkeypatch.setattr(cli, "_write_csv", failing)
    out = tmp_path / "a" / "b"
    cfg = _config(tmp_path, "convertible.ini", **SMALL)
    assert main(["price", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"config error: cannot write {out / 'surface.csv'}: disk full\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["convertible.ini"]


EDGE = {"x_min": 0, "x_max": 100}


def test_price_at_the_lower_end_of_the_domain_evaluates_there(tmp_path):
    # s_of(x_min, horizon), the lowest probe the config accepts, maps back
    # to an x just below x_min; the run used to exit 1 after a traceback
    le = LelandParams(0.1, 0.2, 100.0, 1.0, leland_number=0.8)
    probe = float(le.s_of(0.0, le.horizon))
    out = tmp_path / "out"
    cfg = _config(tmp_path, "leland_ladder.ini", **EDGE,
                  **{"experiment.probe_s": repr(probe)})
    proc = _run_cli("price", "--config", cfg, "--out", out)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "V(0.904837) = 0.0000\n"
    assert (out / "greeks.csv").exists()


def test_misfit_at_the_lowest_greville_price_evaluates_there(tmp_path):
    # the P1 misfit samples at each rung's Greville prices, the lowest of
    # which maps back to an x just below x_min
    out = tmp_path / "out"
    cfg = _config(tmp_path, "leland_ladder.ini", **EDGE,
                  **{"ladder.rungs": "8:4", "ladder.reference": "16:8"})
    proc = _run_cli("converge", "--config", cfg, "--out", out)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert (out / "convergence.csv").exists()


def test_the_leland_ladder_march_does_not_drift(tmp_path, capsys,
                                                 monkeypatch):
    # the Leland cost march has no committed golden, so a solve that is
    # no longer bitwise would first fail in the benchmark's output check;
    # pin a cut ladder's rungs and its P1 reference exactly, as reprs
    import igafin.cli as cli
    curves, oracle_curve = [], cli._oracle_curve

    def recorded(*args):
        curves.append(oracle_curve(*args))
        return curves[-1]

    monkeypatch.setattr(cli, "_oracle_curve", recorded)
    monkeypatch.setattr(cli, "_fmt", lambda v: "" if v is None else repr(v))
    cfg = _config(tmp_path, "leland_ladder.ini",
                  **{"ladder.rungs": "32:20, 64:80",
                     "ladder.reference": "512:1280"})
    assert main(["converge", "--config", str(cfg),
                 "--out", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "32  20  19.415577112730496  7.999299425215068  -",
        "64  80  16.639628087471795  3.128172255152944  2.5571799673237505"]
    assert float(curves[0]([100.0])[0]) == 15.619687265367528


@pytest.mark.parametrize("verb,base", [
    ("price", "leland_ladder.ini"),
    ("converge", "linear_uniform.ini"),
    ("converge", "leland_ladder.ini"),
])
def test_blown_up_march_is_a_solver_failure_with_no_output(
        tmp_path, capsys, monkeypatch, verb, base):
    from igafin.models import LelandParams
    payoff = LelandParams.payoff

    def with_a_nan(params, x):
        v = payoff(params, x)
        v[len(v) // 2] = np.nan
        return v

    # the first step then yields a non-finite vector, which run_leland
    # reports as a FloatingPointError (the P1 reference of the leland
    # ladder marches through the same code and fails first)
    monkeypatch.setattr(LelandParams, "payoff", with_a_nan)
    out = tmp_path / "out"
    cfg = _config(tmp_path, base, **SMALL)
    with np.errstate(invalid="ignore"):
        rc = main([verb, "--config", str(cfg), "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 3
    assert err.startswith("solver failure: solution blew up at time level 1")
    assert not out.exists()


def test_import_leaves_out_scipy_stats():
    # scipy.stats was most of the import time, for one normal cdf, and
    # scipy.special is not needed either: the closed form's normal cdf is
    # math.erfc.  scipy.sparse is not needed: banded products are numpy.
    # The LAPACK routines are numpy's own, so no scipy module is loaded
    # where numpy's library exports them; elsewhere scipy's wrappers are
    # loaded without the scipy.linalg package, whose import pulls in
    # numpy.f2py and concurrent.futures, and from a directory found
    # without importing the scipy package, whose __init__ loads
    # subprocess and sysconfig.  Building a discretisation does not load
    # numpy.ma, which np.unique imports on its first call.  Neither
    # validate's suite nor configparser is loaded before validate runs,
    # and validate, which evaluates every closed form, loads no scipy
    # module either
    names = ("scipy.stats", "scipy.special", "scipy.sparse", "scipy.linalg",
             "numpy.f2py", "concurrent.futures", "numpy.ma", "scipy",
             "subprocess", "sysconfig", "igafin.checks", "configparser")
    code = "\n".join([
        "import contextlib, io, sys, igafin.cli",
        "from igafin.stepper import build_discretization",
        "build_discretization(-6, 2, 8)",
        f"print([m for m in {names!r} if m in sys.modules])",
        "with contextlib.redirect_stdout(io.StringIO()):",
        "    rc = igafin.cli.main(['validate'])",
        "print(rc, sorted(m for m in sys.modules"
        " if m.split('.')[0] == 'scipy'))",
        "from igafin import linsolve",
        "lib = linsolve.ctypes.CDLL(linsolve._umath_linalg.__file__)",
        "print(all(hasattr(lib, f'scipy_{name}_64_')"
        " for name in linsolve._ROUTINES))"])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    loaded, scipy_modules, exported = out.splitlines()
    assert loaded == "[]"
    if exported == "True":
        assert scipy_modules == "0 []"
    else:
        assert scipy_modules == "0 ['scipy.linalg._flapack']"


def test_the_package_root_imports_no_module():
    # every name is imported from its module, so ``import igafin`` loads
    # none, and each module imports alone, without the order the root
    # once imported them in
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    code = ("import sys, igafin; print(sorted(m for m in sys.modules "
            "if m.startswith('igafin.')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out == "[]\n"
    modules = sorted(path.stem for path in (ROOT / "src" / "igafin")
                     .glob("*.py") if path.stem != "__init__")
    assert len(modules) == 10
    for name in modules:
        subprocess.run([sys.executable, "-c", f"import igafin.{name}"],
                       env=env, check=True)


def test_no_module_imports_a_thread_pool():
    # the import guard above sees only what one import loads; this one
    # reads igafin's own import statements, including the deferred ones
    banned = {"concurrent", "multiprocessing", "threading"}
    found = []
    for path in sorted((ROOT / "src" / "igafin").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}: {n}" for n in names
                      if n.split(".")[0] in banned]
    assert not found


def test_only_models_reads_the_event_schedule():
    # AfvParams.calendar is the one place that decides on which levels the
    # coupons, the put and the call act: no other module reads the schedule
    # or the exercise windows
    banned = {"call_window", "put_window", "coupons"}
    found = []
    for path in sorted((ROOT / "src" / "igafin").glob("*.py")):
        if path.name == "models.py":
            continue
        found += [f"{path.name}:{node.lineno}: .{node.attr}"
                  for node in ast.walk(ast.parse(path.read_text()))
                  if isinstance(node, ast.Attribute) and node.attr in banned]
    assert not found


def test_only_models_knows_the_model():
    # per-model decisions live in the parameter classes: no module tests a
    # parameter class but stepper.run, which models could not own as a
    # method without importing stepper, and none of the modules that
    # consume a model reaches into the stepper's private names
    classes = {"LelandParams", "AfvParams"}
    found = []
    for name in ("cli", "greeks", "checks", "reference", "models", "stepper"):
        tree = ast.parse((ROOT / "src" / "igafin" / f"{name}.py").read_text())
        exempt = {id(node) for top in tree.body
                  if name == "stepper" and getattr(top, "name", "") == "run"
                  for node in ast.walk(top)}
        for node in ast.walk(tree):
            if id(node) in exempt:
                continue
            if (isinstance(node, ast.Call)
                    and getattr(node.func, "id", None) == "isinstance"
                    and classes & {n.id for n in ast.walk(node.args[1])
                                   if isinstance(n, ast.Name)}):
                found.append(f"{name}.py:{node.lineno}: isinstance")
            elif (isinstance(node, ast.ImportFrom)
                  and (node.module or "").endswith("stepper")):
                found += [f"{name}.py:{node.lineno}: {a.name}"
                          for a in node.names if a.name.startswith("_")]
    assert not found


def test_every_traced_layer_names_a_package_attribute():
    # the benchmark's tracer swaps each (module, attribute) of its LAYERS
    # table for a wrapper, so a rename in the package breaks the traced
    # benchmark, which this suite does not run; read the table from the
    # file and resolve each name as the tracer does: a method through its
    # class's own __dict__, so an inherited one does not count
    import importlib
    tree = ast.parse((ROOT / "perfbench" / "spans.py").read_text())
    [table] = [node.value for node in tree.body
               if isinstance(node, ast.Assign)
               and [getattr(t, "id", None) for t in node.targets] == ["LAYERS"]]
    assert table.elts
    missing = []
    for entry in table.elts:
        module, attr = (ast.literal_eval(e) for e in entry.elts[:2])
        try:
            owner = importlib.import_module(f"igafin.{module}")
        except ModuleNotFoundError:
            missing.append(f"igafin.{module}")
            continue
        cls_name, _, name = attr.rpartition(".")
        scope = getattr(owner, cls_name, None) if cls_name else owner
        if scope is None or name not in vars(scope):
            missing.append(f"igafin.{module}.{attr}")
    assert not missing


def test_every_benchmark_import_names_a_package_attribute():
    # the benchmark scripts import names from the package, and a rename
    # breaks them without failing this suite; read their imports and
    # resolve each name
    import importlib
    imported, missing = [], []
    for path in sorted((ROOT / "perfbench").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(node, ast.ImportFrom) and node.level == 0
                    and (node.module or "").split(".")[0] == "igafin"):
                continue
            owner = importlib.import_module(node.module)
            for alias in node.names:
                imported.append(alias.name)
                if not hasattr(owner, alias.name):
                    try:
                        importlib.import_module(f"{node.module}.{alias.name}")
                    except ModuleNotFoundError:
                        missing.append(f"{path.name}: {node.module}."
                                       f"{alias.name}")
    assert {"parse_config", "fdm_solve_afv"} <= set(imported)
    assert not missing


def _references(tree, dotted_strings):
    """Names a module refers to, each outside the definitions that bear
    it: loaded names, attributes and, with ``dotted_strings``, the dotted
    parts of its string constants."""
    found = set()

    def visit(node, enclosing):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            enclosing = enclosing | {node.name}
        if isinstance(node, ast.Name):
            names = {node.id}
        elif isinstance(node, ast.Attribute):
            names = {node.attr}
        elif (dotted_strings and isinstance(node, ast.Constant)
              and isinstance(node.value, str)):
            names = set(node.value.split("."))
        else:
            names = set()
        found.update(names - enclosing)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(tree, frozenset())
    return found


def test_every_library_name_has_a_caller():
    # a function, class or method of the package that nothing but a test
    # reaches is a second library beside the pipeline.  A name is used
    # when the package or the benchmark refers to it outside its own
    # definition; the re-exports of __all__ and __init__ do not count,
    # and the benchmark names its spans by dotted strings
    oracles = {"from_dense", "closed_form_greeks"}
    defined, used = {}, set()
    for path in sorted((ROOT / "src" / "igafin").glob("*.py")):
        tree = ast.parse(path.read_text())
        used |= _references(tree, dotted_strings=False)
        for node in tree.body:
            members = node.body if isinstance(node, ast.ClassDef) else []
            for item in [node, *members]:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                    defined.setdefault(item.name, []).append(
                        f"{path.name}:{item.lineno}")
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        used |= _references(ast.parse(path.read_text()), dotted_strings=True)
    unused = sorted(f"{where}: {name}" for name, places in defined.items()
                    if name not in used | oracles
                    and not (name.startswith("__") and name.endswith("__"))
                    for where in places)
    assert not unused


def test_compare_runs_matrix_reads_real_configs_and_keys():
    # a renamed key would turn an override run into rc 2 on both sides,
    # which the tool reports as the same
    spec = importlib.util.spec_from_file_location(
        "compare_runs", ROOT / "tools" / "compare_runs.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    names = [run[0] for run in tool.RUNS]
    assert len(set(names)) == len(names)
    for name, verb, cfg, overrides in tool.RUNS:
        # validate is the one verb that reads no config
        assert (cfg is None) == (verb == "validate"), name
        assert cfg is None or (ROOT / "configs" / cfg).is_file(), name
        for dotted in overrides:
            section, key = dotted.split(".")
            assert key in _KNOWN_KEYS.get(section, ()), (name, dotted)
