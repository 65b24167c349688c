"""Batch CLI: config parsing, subcommand dispatch, deterministic CSV/JSON output.

The configuration is ``RunConfig`` and its nested dataclasses: their
fields are the JSON config schema and hold every default.  The JSON file
and the flags, written into the parsed document at their dotted paths
(``--tol`` is ``quadrature.rel_tol``, ``--out`` is ``output.path``,
``--grid`` is ``grid.{min,max,count}``; see ``build_parser``), are loaded
in one strict pass that rejects an unknown key or an ill-typed value with
a ``ConfigError`` naming its dotted path, before anything is computed.
Each subcommand is one entry of ``_COMMANDS``: its runner, the layer its
errors name, the config paths it reads (a path set but not read is rejected
in the same way) and whether its grid is radial.  A runner returns its one
artifact form, a ``Table`` (CSV) or a dict (JSON, after the ``preset`` and
``operation`` keys), and ``main`` writes it atomically (temp file + rename)
with shortest-round-trip floats, so identical runs give byte-identical
artifacts.

Exit codes: 0 success, 2 validation failure, 3 numerical-accuracy failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import tempfile
import typing
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from . import acceptance, profiles, schwartz
from . import transform as tr
from .cfunction import c_function, plancherel_density
from .errors import AccuracyError, ConfigError, SphtransError
from .groups import PRESET_NAMES, preset
from .specfun import QuadratureSpec
from .spherical import phi

# the CLI's names for the acceptance suite's inversion symbols and its flat-top at s = 3.2
_INVERSION = acceptance.INVERSION_SYMBOLS
SYMBOLS = {
    "gauss": _INVERSION["exp(-x^2)"],
    "x2gauss": _INVERSION["x^2 exp(-x^2)"],
    "wide": _INVERSION["exp(-x^2/4)"],
    "poly": _INVERSION["(1+x^2) exp(-x^2)"],
    "quartic": _INVERSION["exp(-x^4/8)"],
    "flat4": acceptance.flat_top(3.2),
}


class _Family(NamedTuple):
    build: Callable | None  # its radial profile from the preset and the ProfileSpec
    fields: tuple[str, ...]  # the profile fields it reads
    serves: tuple[str, ...]  # the subcommands that take it


_RADIAL = ("transform", "seminorm", "membership")
_FAMILIES = {
    "gaussian": _Family(lambda G, p: profiles.gaussian_profile(G, p.width, p.scale),
                        ("width", "scale"), _RADIAL),
    "cosh": _Family(lambda G, p: profiles.cosh_profile(G, p.power), ("power",), _RADIAL),
    # its decay e^(-rho t) (1+t)^-2 sits on the Schwartz boundary: too weak to transform
    "xi_poly": _Family(lambda G, p: profiles.xi_poly_profile(G, p.p), ("p",), ("seminorm",)),
    "wave_packet": _Family(lambda G, p: _packet(G, p.symbol), ("symbol",), _RADIAL),
    # a spectral function, with no radial profile
    "counterexample": _Family(None, ("symbol",), ("membership",)),
}
_TOLS = ("quadrature.rel_tol", "quadrature.abs_tol")


@dataclass
class GridSpec:
    min: float = -12.0
    max: float = 12.0
    count: int = 481


@dataclass
class OutputSpec:
    path: str | None = None


@dataclass
class ProfileSpec:
    family: str = "wave_packet"
    symbol: str = "gauss"
    symbol2: str = "x2gauss"
    width: float = 1.0
    scale: float = 1.0
    power: float | None = None
    p: int = 3


@dataclass
class RunConfig:
    preset: str = "SL2R"
    lam: float = 1.0
    grid: GridSpec = field(default_factory=GridSpec)
    quadrature: QuadratureSpec = field(default_factory=QuadratureSpec)
    output: OutputSpec = field(default_factory=OutputSpec)
    profile: ProfileSpec = field(default_factory=ProfileSpec)
    lams: tuple[float, ...] = (0.5, 1.0, 2.0)
    eps_ladder: tuple[float, ...] = (0.4, 0.2, 0.1)
    r_values: tuple[float, ...] = (0.0, 1.0, 2.0, 3.0)
    k_values: tuple[int, ...] = (0, 1, 2)


# ---------------------------------------------------------------------------
# the one strict loader
# ---------------------------------------------------------------------------

def _load(tp, value, path: str):
    """``value`` from the JSON document as an instance of annotation ``tp``."""
    if dataclasses.is_dataclass(tp):
        if not isinstance(value, dict):
            where = path or "config"
            raise ConfigError(f"{where}: expected an object, got {value!r}", path=where)
        types = typing.get_type_hints(tp)
        kwargs = {}
        for key, item in value.items():
            where = f"{path}.{key}" if path else key
            if key not in types:
                raise ConfigError(f"unknown config field {where!r}", path=where)
            kwargs[key] = _load(types[key], item, where)
        try:
            return tp(**kwargs)
        except SphtransError as exc:  # a dataclass that checks its own values
            raise ConfigError(f"{path}: {exc}", path=path) from exc
    args = typing.get_args(tp)
    if typing.get_origin(tp) is tuple:  # tuple[X, ...]
        if not isinstance(value, list):
            raise ConfigError(f"{path}: expected a list, got {value!r}", path=path)
        return tuple(_load(args[0], item, f"{path}[{i}]") for i, item in enumerate(value))
    if type(None) in args:  # X | None
        return None if value is None else _load(args[0], value, path)
    accepted = (int, float) if tp is float else tp
    if isinstance(value, bool) or not isinstance(value, accepted):
        raise ConfigError(f"{path}: expected {tp.__name__}, got {value!r}", path=path)
    return float(value) if tp is float else value


def load_config(doc: dict) -> RunConfig:
    """Build a RunConfig from a parsed JSON document, strictly."""
    return _load(RunConfig, doc, "")


def _reject_unread(doc: dict, reads: set[str], subcommand: str, prefix: str = ""):
    """ConfigError at the first set path not in ``reads``; a section in ``reads`` is read whole."""
    for key, value in doc.items():
        path = prefix + key
        if isinstance(value, dict) and path not in reads:
            _reject_unread(value, reads, subcommand, path + ".")
        elif path not in reads:
            raise ConfigError(f"{path}: the {subcommand} subcommand does not read it", path=path)


def _reads(subcommand: str, cfg: RunConfig) -> set[str]:
    """The paths ``subcommand`` reads: output.path, its entry's, and its profile family's."""
    reads = {"output.path", *_COMMANDS[subcommand].reads}
    if "profile.family" in reads:
        family = cfg.profile.family
        if family in _FAMILIES:
            reads.update(f"profile.{f}" for f in _FAMILIES[family].fields)
        if family == "counterexample" and subcommand == "membership":  # nothing to transform
            reads.difference_update(_TOLS)
    return reads


def validate_config(cfg: RunConfig, subcommand: str):
    if cfg.grid.count < 3:
        raise ConfigError("grid.count: need at least 3 points", path="grid.count")
    if not -math.inf < cfg.grid.min < cfg.grid.max < math.inf:
        raise ConfigError("grid: need finite min < max", path="grid")
    command = _COMMANDS[subcommand]
    if command.radial and cfg.grid.min < 0:
        raise ConfigError("grid.min: radial grids need min >= 0", path="grid.min")
    if "grid" in command.reads and not command.radial:
        if cfg.grid.count % 2 == 0:
            raise ConfigError("grid.count: spectral grids must have an odd point count",
                              path="grid.count")
        if abs(cfg.grid.min + cfg.grid.max) > 1e-12:
            raise ConfigError("grid: spectral grids must be symmetric about 0", path="grid")
    prof = cfg.profile
    symbols = acceptance.COUNTEREXAMPLES if prof.family == "counterexample" else SYMBOLS
    for path, name, valid in (("preset", cfg.preset, PRESET_NAMES),
                              ("profile.family", prof.family, _FAMILIES),
                              ("profile.symbol", prof.symbol, symbols),
                              ("profile.symbol2", prof.symbol2, SYMBOLS)):
        if name not in valid:
            raise ConfigError(f"{path}: unknown {name!r}; valid: {', '.join(valid)}", path=path)
    if "profile.family" in command.reads and subcommand not in _FAMILIES[prof.family].serves:
        valid = ", ".join(name for name, fam in _FAMILIES.items() if subcommand in fam.serves)
        raise ConfigError(f"profile.family: the {subcommand} subcommand does not take "
                          f"{prof.family!r}; valid: {valid}", path="profile.family")
    out = cfg.output.path
    if out is not None and (os.path.isdir(out) or not os.path.isdir(_directory(out))):
        raise ConfigError(f"output.path: {out!r} is not a file in an existing directory",
                          path="output.path")


def _grid(cfg: RunConfig) -> np.ndarray:
    return np.linspace(cfg.grid.min, cfg.grid.max, cfg.grid.count)


def _packet(G, name: str) -> tr.RadialProfile:
    return tr.wave_packet(G, acceptance.make_symbol(SYMBOLS[name], name))


def _build_profile(G, cfg: RunConfig):
    return _FAMILIES[cfg.profile.family].build(G, cfg.profile)


# ---------------------------------------------------------------------------
# deterministic emission
# ---------------------------------------------------------------------------

def _fmt(x) -> str:
    """Shortest-round-trip decimal form (Python repr of binary64)."""
    if isinstance(x, (bool, int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


class Table(NamedTuple):
    """A CSV artifact: its header and its rows."""
    header: list[str]
    rows: list[list]


def _json_default(obj):
    """A complex number as {"re", "im"}: every other number an artifact holds is a Python
    int or float (np.float64 is a float), and every array a list."""
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    raise TypeError(f"cannot serialize {type(obj)}")


def _directory(path: str) -> str:
    return os.path.dirname(os.path.abspath(path))


def _emit(artifact: Table | dict, path: str | None):
    """Write a Table as CSV or a dict as JSON, atomically to ``path`` or to stdout."""
    if isinstance(artifact, Table):
        text = "".join(",".join(map(_fmt, row)) + "\n" for row in [artifact.header, *artifact.rows])
    else:
        text = json.dumps(artifact, indent=2, default=_json_default) + "\n"
    if path is None:
        sys.stdout.write(text)
        return
    fd, tmp = tempfile.mkstemp(dir=_directory(path), prefix=".sphtrans-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# subcommand implementations
# ---------------------------------------------------------------------------

def _run_presets(cfg: RunConfig) -> Table:
    header = ["name", "m_alpha", "m_2alpha", "rho", "jacobi_alpha", "jacobi_beta",
              "plancherel_constant", "weyl_order"]
    rows = [[G.name, G.m_alpha, G.m_2alpha, G.rho, G.jacobi_alpha, G.jacobi_beta,
             G.plancherel_constant, G.weyl_order] for G in map(preset, PRESET_NAMES)]
    return Table(header, rows)


def _radial_table(name: str, ts: np.ndarray, vals: np.ndarray) -> Table:
    return Table(["t", f"re_{name}", f"im_{name}"],
                 [[t, v.real, v.imag] for t, v in zip(ts, vals)])


def _run_phi(cfg: RunConfig) -> Table:
    ts = _grid(cfg)
    return _radial_table("phi", ts, phi(preset(cfg.preset), cfg.lam, ts))


def _run_cfun(cfg: RunConfig) -> Table:
    G = preset(cfg.preset)
    grid = _grid(cfg)
    c = np.full(len(grid), complex(math.nan, math.nan))
    regular = grid != 0.0  # lam = 0 is the one pole of c on the real axis
    c[regular] = c_function(G, grid[regular])
    return Table(["lambda", "re_c", "im_c", "density"],
                 [list(row) for row in zip(grid, c.real, c.imag, plancherel_density(G, grid))])


def _run_transform(cfg: RunConfig) -> Table:
    G = preset(cfg.preset)
    res = tr.hc_transform(G, _build_profile(G, cfg), _grid(cfg), cfg.quadrature)
    return Table(["lambda", "re", "im", "err_est"],
                 [[l, v.real, v.imag, e]
                  for l, v, e in zip(res.spectral.grid, res.spectral.values, res.err_est)])


def _run_invert(cfg: RunConfig) -> Table:
    psi = _packet(preset(cfg.preset), cfg.profile.symbol)
    ts = _grid(cfg)
    return _radial_table("psi", ts, np.atleast_1d(psi(ts)))


def _run_plancherel(cfg: RunConfig) -> dict:
    G = preset(cfg.preset)
    fa, fb = (_packet(G, name) for name in (cfg.profile.symbol, cfg.profile.symbol2))
    ha, hb = (tr.hc_transform(G, f, q=cfg.quadrature).spectral for f in (fa, fb))
    pairing = tr.plancherel_pairing(G, ha, hb)
    convolve = tr.convolve_at_identity(G, fa, fb, cfg.quadrature)
    return {
        "inputs": {"symbol": cfg.profile.symbol, "symbol2": cfg.profile.symbol2},
        "max_error": abs(pairing - convolve),
        "pairing": pairing,
        "convolve_at_identity": convolve,
    }


def _run_expansion(cfg: RunConfig) -> dict:
    G = preset(cfg.preset)
    psi = _packet(G, cfg.profile.symbol)
    hf = tr.hc_transform(G, psi, q=cfg.quadrature).spectral
    records = []
    max_err = 0.0
    for lam in cfg.lams:
        ref = complex(hf(np.array([lam]))[0])
        for eps in cfg.eps_ladder:
            total = tr.expansion_term(G, "split", psi, lam, eps, cfg.quadrature) + \
                tr.expansion_term(G, "compact", psi, lam, eps, cfg.quadrature)
            err = abs(total - ref)
            max_err = max(max_err, err)
            records.append({"lambda": lam, "eps": eps, "value": total,
                            "reference": ref, "error": err})
    return {
        "inputs": {"symbol": cfg.profile.symbol, "lams": list(cfg.lams),
                   "eps_ladder": list(cfg.eps_ladder)},
        "max_error": max_err,
        "per_sample": records,
    }


def _run_seminorm(cfg: RunConfig) -> dict:
    G = preset(cfg.preset)
    f = _build_profile(G, cfg)
    # k outside r builds each derivative order's block once; the reports stay r-major
    by_k = [[schwartz.schwartz_seminorm(G, f, r, k) for r in cfg.r_values] for k in cfg.k_values]
    return {
        "inputs": {"profile": dataclasses.asdict(cfg.profile),
                   "r_values": list(cfg.r_values), "k_values": list(cfg.k_values)},
        "reports": [dataclasses.asdict(rep) for by_r in zip(*by_k) for rep in by_r],
    }


def _run_membership(cfg: RunConfig) -> dict:
    G = preset(cfg.preset)
    if cfg.profile.family == "counterexample":
        A = acceptance.counterexample(cfg.profile.symbol, _grid(cfg))
    else:
        A = tr.hc_transform(G, _build_profile(G, cfg), _grid(cfg), cfg.quadrature).spectral
    rep = schwartz.image_membership(G, A)
    return {
        "inputs": {"profile": dataclasses.asdict(cfg.profile)},
        "passed": rep.passed,
        "criteria": {
            "weyl": dataclasses.asdict(rep.weyl),
            "decay": {str(n): dataclasses.asdict(c) for n, c in rep.decay.items()},
            "smoothness": dataclasses.asdict(rep.smoothness),
        },
    }


def _run_roundtrip(cfg: RunConfig) -> dict:
    G = preset(cfg.preset)
    psi = _packet(G, cfg.profile.symbol)
    grid = _grid(cfg)
    res = tr.hc_transform(G, psi, grid, cfg.quadrature)
    target = SYMBOLS[cfg.profile.symbol](grid)
    errors = np.abs(res.spectral.values - target)
    return {
        "inputs": {"symbol": cfg.profile.symbol, "grid": dataclasses.asdict(cfg.grid)},
        "max_error": float(np.max(errors)),
        "per_sample": [
            {"lambda": float(l), "recovered": complex(v), "target": complex(w),
             "error": float(e)}
            for l, v, w, e in zip(grid, res.spectral.values, target, errors)
        ],
    }


def _run_accept(cfg: RunConfig) -> int:
    outcomes = acceptance.run_all()
    n_fail = sum(not o.passed for o in outcomes)
    print(f"\n{len(outcomes) - n_fail}/{len(outcomes)} acceptance criteria passed")
    if cfg.output.path is not None:
        _emit({"operation": "accept", "outcomes": [dataclasses.asdict(o) for o in outcomes]},
              cfg.output.path)
    return 3 if n_fail else 0


class _Command(NamedTuple):
    run: Callable[[RunConfig], Table | dict | int]  # its artifact; accept's exit code
    context: str  # the layer named in its error messages
    reads: tuple[str, ...]  # the config paths it reads, besides output.path (see _reads)
    radial: bool = False  # a radial grid, 0:12:481 by default; else spectral (odd, symmetric)


_COMMANDS = {
    "presets": _Command(_run_presets, "groups.preset", ()),
    "phi": _Command(_run_phi, "spherical.phi", ("preset", "lam", "grid"), radial=True),
    "cfun": _Command(_run_cfun, "cfunction.c_function", ("preset", "grid")),
    "transform": _Command(_run_transform, "transform.hc_transform",
                          ("preset", "grid", *_TOLS, "profile.family")),
    "invert": _Command(_run_invert, "transform.wave_packet",
                       ("preset", "grid", "profile.symbol"), radial=True),
    "plancherel": _Command(_run_plancherel, "transform.plancherel_pairing",
                           ("preset", "profile.symbol", "profile.symbol2", "quadrature")),
    "expansion": _Command(_run_expansion, "transform.expansion_term",
                          ("preset", "profile.symbol", "quadrature", "lams", "eps_ladder")),
    "seminorm": _Command(_run_seminorm, "schwartz.schwartz_seminorm",
                         ("preset", "profile.family", "r_values", "k_values")),
    "membership": _Command(_run_membership, "schwartz.image_membership",
                           ("preset", "grid", *_TOLS, "profile.family")),
    "roundtrip": _Command(_run_roundtrip, "transform.hc_transform",
                          ("preset", "grid", *_TOLS, "profile.symbol")),
    "accept": _Command(_run_accept, "acceptance.run_all", ()),
}

def build_parser() -> argparse.ArgumentParser:
    """Each flag's ``dest`` is the dotted config path it sets."""
    parser = argparse.ArgumentParser(
        prog="sphtrans", description="spherical transform engine for rank-one symmetric spaces")
    parser.add_argument("subcommand", choices=_COMMANDS)
    parser.add_argument("--preset", help="group preset name")
    parser.add_argument("--config", help="path to a JSON config file")
    parser.add_argument("--out", dest="output.path", help="output path (default: stdout)")
    parser.add_argument("--grid", help="spectral or radial grid as min:max:count")
    parser.add_argument("--tol", dest="quadrature.rel_tol", type=float,
                        help="relative quadrature tolerance")
    parser.add_argument("--lam", type=float, help="spectral point for `phi`")
    parser.add_argument("--symbol", dest="profile.symbol", help="spectral symbol name")
    parser.add_argument("--profile", dest="profile.family", help="radial profile family")
    return parser


def _put(doc, path: str, value):
    """Write ``value`` at a dotted path of the document; a document or
    section that is not an object is left as it is, for the loader to report."""
    *sections, key = path.split(".")
    for name in sections:
        if not isinstance(doc, dict):
            return
        doc = doc.setdefault(name, {})
    if isinstance(doc, dict):
        doc[key] = value


def _flag_number(text: str):
    """An int or float from a flag's text, else the text for the loader to reject."""
    for parse in (int, float):
        try:
            return parse(text)
        except ValueError:
            pass
    return text


def config_from_args(args) -> RunConfig:
    """The config file with the flags written over it, loaded, checked against the
    paths the subcommand reads, and validated."""
    flags = dict(vars(args))
    subcommand, config, grid = flags.pop("subcommand"), flags.pop("config"), flags.pop("grid")
    doc = {}
    if config is not None:
        try:
            with open(config, encoding="utf-8") as fh:
                doc = json.load(fh)
        except (OSError, ValueError) as exc:  # ValueError: not UTF-8 or not JSON
            raise ConfigError(f"config: cannot load {config!r}: {exc}", path="config") from exc
    if grid is not None:
        parts = grid.split(":")
        if len(parts) != 3:
            raise ConfigError("grid: the flag must be min:max:count", path="grid")
        flags.update(zip(("grid.min", "grid.max", "grid.count"), map(_flag_number, parts)))
    for path, value in flags.items():
        if value is not None:
            _put(doc, path, value)
    cfg = load_config(doc)
    _reject_unread(doc, _reads(subcommand, cfg), subcommand)
    if _COMMANDS[subcommand].radial and "min" not in doc.get("grid", {}):
        cfg.grid.min = 0.0
    validate_config(cfg, subcommand)
    return cfg


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    command = _COMMANDS[args.subcommand]
    context = "cli.config"
    try:
        cfg = config_from_args(args)
        context = command.context
        artifact = command.run(cfg)
        if isinstance(artifact, int):
            return artifact
        if isinstance(artifact, dict):
            artifact = {"preset": cfg.preset, "operation": args.subcommand, **artifact}
        _emit(artifact, cfg.output.path)
        return 0
    except (SphtransError, OSError) as exc:
        print(f"error in {context}: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, AccuracyError) else 2


if __name__ == "__main__":
    sys.exit(main())
