"""Command-line batch runner for the pricing experiments.

Verbs
-----
price      one solve; writes surface.csv, slice_t0.csv, greeks.csv and prints
           the value at the probe price, both as the exact NURBS evaluation
           and at the nearest Greville grid point (the exact number is the
           one the benchmark tables quote).
converge   ladder of (n_elements, n_tau) runs; writes convergence.csv with
           value, error and contraction columns, the error against the
           oracle.
validate   runs the structural invariant suite, one report line per check.

price and converge take --config and --out, which they need, and --oracle;
validate takes no flag.  A flag the verb does not read is a usage error.
The probe price is the [experiment] key probe_s.

--oracle is closed-form, the model's exact value (the call has one); p1,
the pipeline on hat functions; fdm, the central-difference twin; or none.
An oracle is one curve S -> V(S, t = 0), and a p1 or fdm run keeps only
its final level for it.  price prints the curve at the probe and runs p1
and fdm on its own grid.  converge runs them on the [ladder]
reference, else on its largest rung, and its error is their value misfit
at the rung's Greville prices up to three times the payoff kink (against
the closed form, the error at the probe).  Without --oracle, price takes
none, and converge takes p1 if the config names a reference, else
closed-form if the model has one, else none.

Exit codes: 0 success, 1 failed validation, 2 configuration error, 3 solver
failure.  Unknown sections and keys and values that do not parse are hard
errors carrying the offending line number.  Such values are among others a
float that is not a finite number; a degree, n_elements or n_tau below 1,
in [discretization], a ladder rung or the reference (every march takes at
least one step); a knot_mode other than uniform or refined; and a [ladder]
reference that is not exactly one n_elements:n_tau pair.  Section names are
matched as written, so [Ladder] and [DEFAULT] are unknown sections.  The
file is read once, by configparser's rules: a line indented deeper than
its key's continues the value, so a key indented under its section header
is a key, named at its line in every error.  A line that cannot be read
(one before any section header, one with no '=' or ':', one with no key
before its first, as '= 0.2', a repeated section or key) is a parse error
on one line, its line number in the prefix like every other.  A config
file that is not UTF-8 text is an error naming its path, and nothing is
written unless the whole configuration parses.  The [model] keys are the
fields of the model's parameter class, with its defaults; a field without a
default is a required key.  Every run takes unit NURBS weights, price keeps
every (n_tau // 50)-th level and --out names the output directory, so
weights_file, store_every and [output] are unknown.
Settings that parse but cannot run are errors of parse_config too, at the
line of the key they name (its section's if that key is left out), so that a
parsed config can run: x_min >= x_max; an interval whose ends, at t = 0 or
at maturity, map to stock prices that are not positive or whose squares are
not finite, positive doubles; refined knots on one element or with the
payoff kink outside (x_min, x_max); a [discretization] grid or ladder rung
with fewer than three basis functions (none interior); theta outside [0, 1];
negative rannacher_steps; a probe price outside the domain; and, at the
[model] line, a call window that opens and closes on one date, a sigma whose
square is not a positive, finite double and a convertible whose payoff kink
ln((F + c_T)/(k S_0)) is not finite, as when k S_0 overflows.  Before
solving, the verbs reject what their flags and work add, each at the line
of the key in parentheses: degree < 2 for price (degree: gamma needs it); a
final level that is a coupon or put date, as is the level before it or with
no level before that (n_tau: theta has no pair of levels); a closed form
the model lacks (model); a p1 or fdm oracle on one element (n_elements, or
for converge reference, else rungs); a p1 or fdm converge whose prices at
t = 0 all lie above three times the payoff kink (x_min: its misfit has
nothing to sample); and converge without rungs (rungs; the path alone with
no [ladder] section).  Errors of the flags name the path alone: an unknown
oracle, and an output directory that is empty or below a file, or in which
a table the verb writes is a directory.  A march or a Greek that produces a
value that is not finite is a solver failure, reported on one line.  price
and converge print each warning on one stderr line, "warning: <message>".

price builds every table before it writes its first file.  Every CSV goes
through ``greeks.write_csv``: to a ``.tmp`` file that replaces it at the
end and is removed if writing or the replacement fails.  surface.csv is
written one stored level at a time, its level and t cells formatted once
per level, so the formatted table never sits in memory whole.  An OSError
from making the output directory or writing a table is a configuration
error too, rc 2 on one line that names the path: the run removes the
tables it has already written and the directories it made, so it leaves
none of its files.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import re
import sys
import warnings
from dataclasses import MISSING, dataclass, field, fields, replace
from functools import partial

import numpy as np

from .assembly import PhysicalMap
from .greeks import block_lines as _block_lines
from .greeks import check_greeks, greeks_table, write_greeks_csv
from .greeks import write_csv as _write_csv
from .models import AfvParams, LelandParams
from .reference import fdm_solve, misfit_epsilon, p1fem_solve
from .stepper import (NewtonDivergenceError, SchemeConfig,
                      build_discretization, build_knots, run, value_curve)

__all__ = ["ConfigError", "ExperimentConfig", "parse_config", "run_pricing",
           "run_convergence", "main"]


class ConfigError(ValueError):
    """Configuration problem; carries the file path and 1-based line."""

    def __init__(self, message: str, path: str = "", line: int | None = None):
        at = f"{path}:{line}: " if line else (f"{path}: " if path else "")
        super().__init__(at + message)
        self.path = path
        self.line = line


_MODELS = {"linear-bs": LelandParams, "leland": LelandParams,
           "afv": AfvParams}


def _read_ini(text: str, path: str):
    """``{section: {key: value}}`` and ``{(section, key): line}`` of an INI
    text, read by configparser's rules with no interpolation and no default
    section; the key "" holds a section's own line.  Lines end at a line
    feed alone, and one that cannot be read is a ConfigError at its line."""
    parts: dict[str, dict[str, list[str]]] = {}
    lines: dict[tuple[str, str], int] = {}
    section, key, indent = None, "", 0
    for no, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        depth = len(raw) - len(raw.lstrip())
        if line.startswith(("#", ";")) or not (line or key):
            continue
        # a blank line, or one indented deeper than its key's, continues
        if key and (not line or depth > indent):
            parts[section][key].append(line)
            continue
        header, indent = re.match(r"\[(.+)\]", line), depth
        if header:
            section, key = header.group(1), ""
            error = (f"repeated section [{section}]" if section in parts
                     else "")
            parts[section] = {}
        elif section is None:
            error = f"no section header before {line!r}"
        elif not (delimiter := re.search("[=:]", line)):
            error = f"no '=' or ':' in {line!r}"
        else:
            key = line[:delimiter.start()].strip().lower()
            error = (f"no key in {line!r}" if not key else
                     f"repeated key '{key}' in [{section}]"
                     if key in parts[section] else "")
            parts[section][key] = [line[delimiter.end():].strip()]
        if error:
            raise ConfigError(f"parse error: {error}", path, no)
        lines[(section, key)] = no
    return ({name: {k: "\n".join(v).rstrip() for k, v in keys.items()}
             for name, keys in parts.items()}, lines)


def _get(ini, lines, path, section, key, conv, default=MISSING):
    """``key`` of ``section`` through ``conv``; ``default`` if it is absent,
    which a key without a default must not be."""
    raw = ini.get(section, {}).get(key)
    if raw is None:
        if default is MISSING:
            raise ConfigError(f"missing key '{key}' in [{section}]", path,
                              lines.get((section, "")))
        return default
    try:
        return conv(raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad value for '{key}': {raw!r} ({exc})", path,
                          lines.get((section, key))) from None


def _finite(raw: str) -> float:
    """The value of a float key or entry, which must be a finite number."""
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError("not a finite number")
    return value


def _count(raw: str) -> int:
    """The value of a count key or entry, which must be at least 1."""
    value = int(raw)
    if value < 1:
        raise ValueError("must be >= 1")
    return value


def _choice(*names: str):
    """The converter of a key whose value is one of ``names``, any case."""
    def conv(raw: str) -> str:
        name = raw.strip().lower()
        if name not in names:
            raise ValueError(f"must be one of {names}")
        return name
    return conv


def _pairs(conv):
    """The converter of a key that lists 'a:b, a:b, ...' (commas or
    newlines between pairs), each entry read through ``conv``."""
    def parse(raw: str) -> tuple[tuple, ...]:
        out = []
        for item in (s for s in re.split(r"[,\n]+", raw) if s.strip()):
            a, b = (conv(v) for v in item.split(":"))
            out.append((a, b))
        return tuple(out)
    return parse


def _parse_window(raw: str) -> tuple[float, float, float] | None:
    raw = raw.strip().lower()
    if raw in ("", "none"):
        return None
    a, b, price = (_finite(v) for v in raw.split(":"))
    return (a, b, price)


# the [model] keys whose values are not single floats
_CONVERTERS = {"coupons": _pairs(_finite), "call_window": _parse_window,
               "put_window": _parse_window}


def _parse_reference(raw: str) -> tuple[int, int]:
    """The P1 reference's one n_elements:n_tau pair."""
    pairs = _pairs(_count)(raw)
    if len(pairs) != 1:
        raise ValueError(f"need one n_elements:n_tau pair, got {len(pairs)}")
    return pairs[0]


def _key(section: str, conv, default=MISSING):
    """A field that is the key of its name in ``section``, read through
    ``conv``: required without a default, and a callable default is a
    function of the model parameters."""
    return field(metadata={"section": section, "conv": conv,
                           "default": default})


@dataclass
class ExperimentConfig:
    """Validated run description; everything the verbs need.  Each field
    but ``path``, ``params``, ``out_dir`` (``--out``) and ``lines`` (each
    key's line in the file) is one config key."""

    path: str
    model: str = _key("experiment", _choice(*_MODELS))
    params: object
    degree: int = _key("discretization", _count, 3)
    n_elements: int = _key("discretization", _count)
    knot_mode: str = _key("discretization", _choice("uniform", "refined"),
                          "uniform")
    n_tau: int = _key("discretization", _count)
    theta: float = _key("discretization", _finite, SchemeConfig.theta)
    rannacher_steps: int = _key("discretization", int,
                                SchemeConfig.rannacher_steps)
    x_min: float = _key("discretization", _finite, lambda p: p.domain()[0])
    x_max: float = _key("discretization", _finite, lambda p: p.domain()[1])
    probe_s: float = _key("experiment", _finite, 100.0)
    rungs: tuple[tuple[int, int], ...] = _key("ladder", _pairs(_count),
                                              lambda p: ())
    reference: tuple[int, int] | None = _key("ladder", _parse_reference, None)
    out_dir: str = ""
    lines: dict[tuple[str, str], int] = field(default_factory=dict)

    def error(self, message: str, *keys: str) -> ConfigError:
        """A ConfigError at the line of the first of ``keys`` in the file,
        else at that of their section, else at the path alone."""
        section = next(f.metadata["section"] for f in fields(self)
                       if f.name == keys[0])
        return ConfigError(message, self.path, next(
            (self.lines[(section, key)] for key in (*keys, "")
             if (section, key) in self.lines), None))


def _known_keys() -> dict[str, set[str]]:
    """Section -> its keys: [model]'s are the parameter classes' fields."""
    known = {"model": {f.name for cls in _MODELS.values()
                       for f in fields(cls)}}
    for f in fields(ExperimentConfig):
        if f.metadata:
            known.setdefault(f.metadata["section"], set()).add(f.name)
    return known


_KNOWN_KEYS = _known_keys()


def _kink_xi(cfg: ExperimentConfig) -> float:
    """The knot parameter of the payoff kink, where refined knots cluster."""
    return float(PhysicalMap(cfg.x_min, cfg.x_max).to_parameter(
        cfg.params.kink))


def _check_runnable(cfg: ExperimentConfig) -> None:
    """Raise ``cfg.error(message, *keys)`` for a setting that cannot run,
    with ``keys`` the settings the message names."""
    try:
        kink_xi = _kink_xi(cfg)
    except ValueError as exc:
        raise cfg.error(str(exc), "x_min", "x_max") from None
    # S at each end, at maturity and at t = 0: gamma divides by S^2
    with np.errstate(over="ignore"):
        ends = {key: [float(cfg.params.s_of(getattr(cfg, key), tau))
                      for tau in (cfg.params.horizon, 0.0)]
                for key in ("x_min", "x_max")}
    s = ends["x_min"] + ends["x_max"]
    for key, pair in ends.items():
        if not all(v > 0.0 and 0.0 < v * v < math.inf for v in pair):
            raise cfg.error(
                f"the domain [x_min, x_max] = [{cfg.x_min:g}, {cfg.x_max:g}] "
                f"reaches stock prices from {min(s):.6g} to {max(s):.6g}, "
                "and S^2 must be a finite, positive double", key)
    if cfg.knot_mode == "refined" and not 0.0 < kink_xi < 1.0:
        raise cfg.error(f"refined knots cluster at the payoff kink x = "
                        f"{cfg.params.kink:.6g}, which lies outside "
                        f"(x_min, x_max) = ({cfg.x_min:g}, {cfg.x_max:g})",
                        "x_min" if kink_xi <= 0.0 else "x_max")
    for key, n_e in [("n_elements", cfg.n_elements),
                     *(("rungs", n_e) for n_e, _ in cfg.rungs)]:
        try:
            knots = build_knots(n_e, cfg.degree, cfg.knot_mode, kink_xi)
        except ValueError as exc:
            raise cfg.error(str(exc), key) from None
        if knots.n_basis < 3:
            raise cfg.error(f"n_elements = {n_e} at degree = {cfg.degree} "
                            f"gives {knots.n_basis} basis functions; a run "
                            "needs at least 3", key)
    # SchemeConfig states both rules; one key at a time names its line
    for key in ("theta", "rannacher_steps"):
        try:
            SchemeConfig(cfg.n_tau, **{key: getattr(cfg, key)})
        except ValueError as exc:
            raise cfg.error(str(exc), key) from None
    lo, hi = ends["x_min"][0], ends["x_max"][0]
    if not lo <= cfg.probe_s <= hi:
        raise cfg.error(f"probe_s = {cfg.probe_s:g} lies outside the "
                        f"computational domain [{lo:.6g}, {hi:.6g}]",
                        "probe_s")


def parse_config(path: str) -> ExperimentConfig:
    """Read an INI experiment description and check that it can run: each
    error is at the line of the key it names, else of that key's section."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(str(exc), path) from None
    ini, lines = _read_ini(text, path)
    for section, keys in ini.items():
        if section not in _KNOWN_KEYS:
            raise ConfigError(f"unknown section [{section}]", path,
                              lines[(section, "")])
        for key in keys:
            if key not in _KNOWN_KEYS[section]:
                raise ConfigError(f"unknown key '{key}' in [{section}]",
                                  path, lines[(section, key)])

    def read(f, params=None):
        default = f.metadata["default"]
        return _get(ini, lines, path, f.metadata["section"], f.name,
                    f.metadata["conv"],
                    default(params) if callable(default) else default)

    model_field, *keyed = (f for f in fields(ExperimentConfig) if f.metadata)
    model = read(model_field)
    cls = _MODELS[model]
    allowed = {f.name for f in fields(cls)}
    for key in ini.get("model", {}):
        if key not in allowed:
            raise ConfigError(f"key '{key}' does not apply to model "
                              f"'{model}'", path, lines[("model", key)])

    # a parameter field with no default is a required key
    values = {f.name: _get(ini, lines, path, "model", f.name,
                           _CONVERTERS.get(f.name, _finite), f.default)
              for f in fields(cls)}
    if model == "linear-bs" and values["leland_number"] != 0.0:
        raise ConfigError("linear-bs requires leland_number = 0",
                          path, lines.get(("model", "leland_number")))
    try:
        params = cls(**values)
    except ValueError as exc:
        raise ConfigError(f"invalid [model] parameters: {exc}", path,
                          lines.get(("model", ""))) from None

    cfg = ExperimentConfig(path, model, params,
                           **{f.name: read(f, params) for f in keyed},
                           lines=lines)
    _check_runnable(cfg)
    return cfg


def _build(cfg: ExperimentConfig, n_elements: int, scheme):
    disc = build_discretization(cfg.x_min, cfg.x_max, n_elements, cfg.degree,
                                cfg.knot_mode, _kink_xi(cfg))
    return disc, run(cfg.params, disc, scheme)


def _scheme(cfg: ExperimentConfig, n_tau: int,
            store_every: int = 0) -> SchemeConfig:
    """The scheme of a run on n_tau steps that keeps every store_every-th
    level, or with 0 only the final level and those the march needs."""
    return SchemeConfig(n_tau, cfg.theta, cfg.rannacher_steps, store_every)


def _fmt(v) -> str:
    return "" if v is None else f"{v:.10g}"


_ORACLES = ("closed-form", "p1", "fdm", "none")


def _oracle_curve(cfg: ExperimentConfig, oracle: str, n_elements: int,
                  n_tau: int, key: str):
    """The oracle as a function from stock prices to V(S, t = 0), or None
    for ``none``: the model's closed form, or the final level of the P1 or
    FDM run on the given grid, which stores the fewest levels.  ConfigErrors:
    an unknown oracle, a closed form the model lacks (at ``model``) and a
    P1 or FDM grid of one element, with no interior node (at ``key``)."""
    params = cfg.params
    if oracle not in _ORACLES:
        raise ConfigError(f"unknown oracle '{oracle}'", cfg.path)
    if oracle == "none":
        return None
    if oracle == "closed-form":
        if not hasattr(params, "closed_form"):
            raise cfg.error(f"model '{cfg.model}' has no closed form",
                            "model")
        return lambda s: params.closed_form(s, 0.0)
    if n_elements < 2:
        raise cfg.error(f"the {oracle} oracle needs n_elements >= 2, got "
                        f"{n_elements}", key)
    solve = p1fem_solve if oracle == "p1" else fdm_solve
    disc, surf = solve(params, cfg.x_min, cfg.x_max, n_elements,
                       _scheme(cfg, n_tau))
    return lambda s: value_curve(params, disc, surf, s)


def _probe_report(cfg, oracle, curve, disc, surf, block) -> list[str]:
    """The lines price prints: the value at the probe, at the nearest
    Greville point of the final level's ``block`` and by ``curve``."""
    params = cfg.params
    name = params.value_column[0]
    exact = float(value_curve(params, disc, surf, [cfg.probe_s])[0])
    grid = block[:, 0]
    j = int(np.argmin(np.abs(grid - cfg.probe_s)))
    near = block[j, 1 + params.columns.index(params.value_column)]
    lines = [f"{name}({cfg.probe_s:g}) = {exact:.4f}  [exact evaluation]",
             f"{name}({grid[j]:.4f}) = {near:.4f}  [nearest Greville point]"]
    if curve is not None:
        lines.append(f"oracle ({oracle}): {name}({cfg.probe_s:g}) = "
                     f"{curve([cfg.probe_s])[0]:.4f}")
    return lines


# the tables each verb writes, in the order it writes them
_TABLES = {"price": ("surface.csv", "slice_t0.csv", "greeks.csv"),
           "converge": ("convergence.csv",)}


def _missing_dirs(out_dir: str) -> list[str]:
    """The directories down to ``out_dir`` that do not exist, deepest
    first."""
    path, missing = os.path.abspath(out_dir), []
    while not os.path.exists(path):
        missing.append(path)
        path = os.path.dirname(path)
    return missing


def _check_out_dir(cfg: ExperimentConfig, verb: str) -> None:
    """Reject an output directory that is empty or that a file blocks (its
    nearest existing ancestor must be a directory), and a table of the
    verb whose path is a directory.  Nothing is created here."""
    if not cfg.out_dir:
        raise ConfigError("the output directory is empty", cfg.path)
    missing = _missing_dirs(cfg.out_dir)
    path = os.path.dirname(missing[-1]) if missing else cfg.out_dir
    if not os.path.isdir(path):
        raise ConfigError(f"output directory {cfg.out_dir} is blocked by the "
                          f"file {os.path.abspath(path)}", cfg.path)
    for name in _TABLES[verb]:
        path = os.path.join(cfg.out_dir, name)
        if os.path.isdir(path):
            raise ConfigError(f"cannot write {path}: it is a directory")


def _publish(cfg: ExperimentConfig, verb: str, writes) -> None:
    """Make the output directory and write in it each table of the verb,
    by the matching ``write(path)`` of ``writes``.  An OSError removes the
    tables and the directories this call made and becomes a ConfigError
    naming the path it failed on."""
    path, done, made = cfg.out_dir, [], _missing_dirs(cfg.out_dir)
    try:
        os.makedirs(path, exist_ok=True)
        for name, write in zip(_TABLES[verb], writes, strict=True):
            path = os.path.join(cfg.out_dir, name)
            write(path)
            done.append(path)
    except OSError as exc:
        for written in done:
            os.remove(written)
        for directory in made:
            with contextlib.suppress(OSError):
                os.rmdir(directory)
        raise ConfigError(f"cannot write {path}: {exc}") from None


def run_pricing(cfg: ExperimentConfig, oracle: str = "none") -> int:
    try:
        check_greeks(cfg.params, cfg.degree, cfg.n_tau)
    except ValueError as exc:
        raise cfg.error(str(exc), "degree" if cfg.degree < 2
                        else "n_tau") from None
    curve = _oracle_curve(cfg, oracle, cfg.n_elements, cfg.n_tau,
                          "n_elements")
    disc, surf = _build(cfg, cfg.n_elements,
                        _scheme(cfg, cfg.n_tau, max(1, cfg.n_tau // 50)))
    params = cfg.params
    fields = [column for column, _ in params.columns]

    # every table is built before the first file is written; the fields
    # at the Greville points take one banded matvec each, and each level
    # is one block of surface.csv, its rows led by the level and t
    blocks = []
    for level, coeffs in surf.levels.items():
        tau = surf.tau(level)
        s = params.s_of(disc.greville_x, tau)
        scale = params.value_scale(tau)
        blocks.append(((level, params.t_of(tau)), np.column_stack(
            [s, *(scale * disc.colloc.evaluate(coeffs[f])
                  for _, f in params.columns)])))
    table = greeks_table(params, disc, surf)
    report = _probe_report(cfg, oracle, curve, disc, surf, blocks[-1][1])

    _publish(cfg, "price", [
        lambda path: _write_csv(
            path, ["level", "t", "S"] + fields,
            (_block_lines(block, prefix) for prefix, block in blocks)),
        lambda path: _write_csv(
            path, ["S"] + fields, [_block_lines(blocks[-1][1])]),
        partial(write_greeks_csv, table=table)])
    for line in report:
        print(line)
    return 0


def _misfit_prices(params, x, tau):
    """The stock prices at ``tau`` of the log prices ``x`` at which a p1 or
    fdm misfit samples: those at or below three times the payoff kink."""
    s = params.s_of(np.asarray(x), tau)
    return s[s <= 3.0 * params.s_of(params.kink, 0.0)]


def _rung_error(cfg, oracle, curve, disc, surf, value) -> float | None:
    """Rung error against the oracle ``curve``; None without one."""
    params = cfg.params
    if curve is None:
        return None
    if oracle == "closed-form":
        return abs(value - float(curve([cfg.probe_s])[0]))
    # value misfit 2-norm against the reference run at this rung's
    # Greville stock prices
    grid = _misfit_prices(params, disc.greville_x, surf.tau(surf.n_steps))
    return misfit_epsilon(curve(grid), value_curve(params, disc, surf, grid))


def run_convergence(cfg: ExperimentConfig, oracle: str | None = None) -> int:
    if not cfg.rungs:
        raise cfg.error("converge needs a [ladder] section with rungs",
                        "rungs")
    if oracle is None:
        oracle = ("p1" if cfg.reference else "closed-form"
                  if hasattr(cfg.params, "closed_form") else "none")
    if oracle in ("p1", "fdm") and not _misfit_prices(
            cfg.params, [cfg.x_min], cfg.params.horizon).size:
        raise cfg.error(f"the {oracle} misfit has nothing to sample: every "
                        "price at t = 0 lies above three times the payoff "
                        "kink", "x_min")
    curve = _oracle_curve(cfg, oracle, *(cfg.reference or max(cfg.rungs)),
                          "reference" if cfg.reference else "rungs")

    rows, prev_err = [], None
    for n_e, n_t in cfg.rungs:
        # a rung reads only its final level
        disc, surf = _build(cfg, n_e, _scheme(cfg, n_t))
        value = float(value_curve(cfg.params, disc, surf, [cfg.probe_s])[0])
        err = _rung_error(cfg, oracle, curve, disc, surf, value)
        contraction = (prev_err / err) if (err and prev_err) else None
        rows.append([n_e, n_t, value, err, contraction])
        prev_err = err
    _publish(cfg, "converge", [lambda path: _write_csv(
        path, ["n_e", "n_tau", "value", "error", "contraction"],
        (",".join(map(_fmt, row)) + "\n" for row in rows))])
    for row in rows:
        print("  ".join(_fmt(v) or "-" for v in row))
    return 0


def _show_warning(message, category, filename, lineno, file=None,
                  line=None) -> None:
    """``warnings.showwarning`` of a run: the message alone, one line."""
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="igafin", description="NURBS Galerkin option-pricing runs")
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb in ("price", "converge", "validate"):
        sp = sub.add_parser(verb)
        if verb != "validate":
            sp.add_argument("--config", required=True)
            sp.add_argument("--out", required=True)
            sp.add_argument("--oracle", default=None, choices=_ORACLES)
    args = parser.parse_args(argv)

    if args.verb == "validate":
        from .checks import format_report, run_checks
        results = run_checks()
        print(format_report(results))
        return 0 if all(r.passed for r in results) else 1

    try:
        with warnings.catch_warnings():
            warnings.showwarning = _show_warning
            cfg = replace(parse_config(args.config), out_dir=args.out)
            _check_out_dir(cfg, args.verb)
            if args.verb == "price":
                return run_pricing(cfg, args.oracle or "none")
            return run_convergence(cfg, args.oracle)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (NewtonDivergenceError, FloatingPointError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
