"""Forward spherical transform, wave-packet inverse, Plancherel pairing,
mollified expansion terms, and the radial Casimir multiplier identity.

All spectral and radial integrals run on fixed grids (nodes independent of
the evaluation point): composite Gauss-Kronrod K51 on the radial side, and on
the spectral side the trapezoid rule on a symbol's own uniform grid, whose
|lam| rows are the forward transform's, so that a round trip reads one table.
So results are deterministic, evaluation errors vary smoothly, and the
expensive spherical-function tables are shared across operations.  Forward
error estimates compare K51 with its embedded G25 on the same nodes, one table
for both, plus explicit envelope tail bounds; reductions are numpy dots (fixed
pairwise order).

One constant per preset ties the radial Haar normalization to the
spectral density:

    forward    (Hf)(lam) = int_0^oo f(t) phi_lam(t) Delta(t) dt
    inverse    psi_a(t)  = (c_P / |W|) int_R a(nu) phi_nu(t) |c(nu)|^-2 dnu

with |W| = 2 and c_P = 1/(2 pi), the Jacobi inversion constant
(Koornwinder 1984; see :mod:`sphtrans.groups`), which makes the round trip
the identity; no other free constants exist anywhere downstream.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import cfunction, spherical
from .errors import (AccuracyError, DomainError, EvaluationError, GridContractError,
                     PreconditionError, SingularPointError)
from .groups import GroupDatum, _real_array, _real_scalar, haar_density, haar_log_derivative
from .specfun import DEFAULT_QUAD, ExpDecay, QuadratureSpec, integrate_interval, truncation_point
from .spherical import RadialProfile, _hc_coefficients, c_log, phi, phi_d1, phi_d2

__all__ = [
    "SpectralDecay",
    "SpectralFunction",
    "TransformResult",
    "default_spectral_grid",
    "hc_transform",
    "convolve_at_identity",
    "wave_packet",
    "plancherel_pairing",
    "expansion_term",
    "casimir_radial",
    "spectral_multiplier",
    "CARTAN_CLASSES",
]

# default spectral window (design decision: |lam| <= 12, 481 symmetric samples)
GRID_MAX = 12.0
GRID_COUNT = 481

# rules held per cache: a shared perfbench warm-up holds 6 radial, 3 spectral
_RULE_CACHE_SIZE = 64
# order of the local polynomial interpolation of sampled spectral functions
_INTERP_ORDER = 6

# bound for Xi(t) e^{rho t} / (1 + t) on the shipped presets, used only
# for truncation planning of forward integrals
_XI_ENVELOPE = 2.0

# contour shifts Im nu = sigma tried for a packet envelope: non-integer, so that no c-function
# pole sits on the contour; the bound holds from t0 on, and its integral over x runs on
# [-_CONTOUR_X, _CONTOUR_X] by the trapezoid rule of the step nearest _CONTOUR_STEP that
# divides _CONTOUR_X (C_sigma within 2.2e-3 of GL40 on panels of 0.75 on the shipped
# symbols), whose ends must be below _CONTOUR_END_TOL of the whole
_SIGMAS = np.arange(0.45, 5.5, 0.5)
_CONTOUR_T0 = 1.0
_CONTOUR_X = 2.0 * GRID_MAX
_CONTOUR_STEP = 0.2
_CONTOUR_END_TOL = 1e-12
# the measured envelope's margin over the largest value it was taken from
_ENVELOPE_MARGIN = 1.15
# a packet's rule of fn drops its highest nodes while their charges' moduli add up to less than
# this share of sum|charge|, which moves it by less than that share of sum|charge| Xi(t)
_CHARGE_DROP = 2.0**-60
# a packet column t past rho t = this, where e^{-rho t}, and so phi and the packet's floor,
# underflow, takes the spectral rule of the t there
_UNDERFLOW_RHO_T = 750.0
# numpy's warning for a complex-to-real cast: np.exceptions is numpy >= 1.25
_ComplexWarning = getattr(np, "exceptions", np).ComplexWarning

CARTAN_CLASSES = ("split", "compact")


def _require_symmetric(grid: np.ndarray, message: str):
    """GridContractError unless grid[i] = -grid[n-1-i] to 1e-12 absolute."""
    if not np.abs(grid + grid[::-1]).max(initial=0.0) <= 1e-12:  # NaN and inf entries fail too
        raise GridContractError(message)


def _checked_grid(grid) -> np.ndarray:
    """``grid`` as a float array; GridContractError unless it is 1-d, non-empty,
    strictly increasing and symmetric about 0; DomainError naming it unless its entries are
    real numbers."""
    grid = _real_array(grid, "a spectral function", "grid")
    if grid.ndim != 1 or grid.size == 0:
        raise GridContractError(f"grid must be 1-d and non-empty, got shape {grid.shape}")
    if (grid[1:] <= grid[:-1]).any():
        raise GridContractError("grid must be strictly increasing")
    _require_symmetric(grid, "grid must be symmetric about 0")
    return grid


def default_spectral_grid() -> np.ndarray:
    return np.linspace(-GRID_MAX, GRID_MAX, GRID_COUNT)


# ---------------------------------------------------------------------------
# spectral-side data types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpectralDecay:
    """Envelope |a(lam)| <= coeff * (1 + |lam|)^(-power)."""

    coeff: float
    power: float


@dataclass(eq=False)
class SpectralFunction:
    """A function on the spectral axis, sampled on a symmetric grid.

    The grid must be symmetric about 0 to 1e-12 absolute.  Off-grid
    evaluation uses local polynomial interpolation of order 6 unless an
    exact evaluator ``fn`` is attached, in which case that is used.
    """

    grid: np.ndarray
    values: np.ndarray
    decay: SpectralDecay
    fn: Optional[Callable] = None
    label: str = ""

    def __post_init__(self):
        self.grid = _checked_grid(self.grid)
        self.values = np.asarray(self.values, dtype=complex)
        if self.values.shape != self.grid.shape:
            raise GridContractError("grid and values must be 1-d and equally long")

    @classmethod
    def from_function(cls, fn, grid, decay: SpectralDecay, label: str = "") -> "SpectralFunction":
        grid = _real_array(grid, "a spectral function", "grid")
        values = np.asarray(fn(grid), dtype=complex)
        return cls(grid=grid, values=values, decay=decay, fn=fn, label=label)

    def __call__(self, x):
        x_arr = _real_array(x, "a spectral function", "x")
        if self.fn is not None:
            out = np.asarray(self.fn(x_arr), dtype=complex)
            return complex(out.reshape(())) if x_arr.ndim == 0 else out
        out = _local_interp(self.grid, self.values, x_arr)
        return complex(out[0]) if x_arr.ndim == 0 else out

    def weyl_defect(self) -> float:
        return float(np.abs(self.values - self.values[::-1]).max())

    def even_values(self) -> np.ndarray:
        return 0.5 * self.values + 0.5 * self.values[::-1]  # no overflow near the float maximum

    def scale(self) -> float:
        return float(np.abs(self.values).max())


def _local_interp(grid: np.ndarray, values: np.ndarray, x) -> np.ndarray:
    """Order-6 Lagrange interpolation of the samples at every query point, shaped
    like ``np.atleast_1d(x)``, from the 7 grid points about each query."""
    order = _INTERP_ORDER
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    n = len(grid)
    if n < order + 1:
        raise GridContractError(f"grid of {n} points cannot support order-{order} interpolation")
    spacing = grid[-1] - grid[-2]
    if (x_arr < grid[0] - spacing).any() or (x_arr > grid[-1] + spacing).any():
        raise DomainError("interpolation query outside the sampled grid")
    xq = np.minimum(np.maximum(x_arr.ravel(), grid[0]), grid[-1])
    start = np.minimum(np.maximum(np.searchsorted(grid, xq) - (order + 1) // 2, 0), n - (order + 1))
    stencil = start + np.arange(order + 1)[:, None]
    xs = grid[stencil]
    # weight j of query i is the product over k != j of (xq_i - x_k) / (x_j - x_k), at
    # [j, k, i]: the query axis last keeps the two reductions elementwise
    diag = np.eye(order + 1, dtype=bool)
    quot = (xq - xs) / (xs[:, None] - xs + diag[:, :, None])
    quot[diag] = 1.0
    return (quot.prod(axis=1) * values[stencil]).sum(axis=0).reshape(x_arr.shape)


@dataclass(eq=False)
class TransformResult:
    """Sampled forward transform plus a per-sample quadrature error estimate."""

    spectral: SpectralFunction
    err_est: np.ndarray


# ---------------------------------------------------------------------------
# shared quadrature tables
# ---------------------------------------------------------------------------

# real phi tables as (t bytes of their columns, table); past the byte cap the oldest go, and
# a larger one is not kept.  A table built once is held only until the next build (its key
# in _PHI_ONCE), and that build is remembered as (hash of its key, bytes), the oldest
# forgotten past the same cap: a hash collision can hold a table early, never return a wrong one
_PHI_CACHE: dict[tuple, tuple[bytes, np.ndarray]] = {}
_PHI_ONCE: list[tuple] = []
_PHI_ASKED: dict[int, int] = {}
_PHI_CACHE_BYTES = 256 * 2**20


def _phi_block(G: GroupDatum, lams: np.ndarray, ts: np.ndarray, order: int = 0) -> np.ndarray:
    """Real matrix [phi_{lam_i}(t_j)] for real lam_i and 1-D ``ts``, or its t-derivative of
    ``order`` 1 or 2: one call of the public ``phi``, ``phi_d1`` or ``phi_d2``, which
    recognises a radial rule's nodes by their values.
    A table is keyed by (G, order, lam bytes, cols): cols is True on a radial rule's nodes that
    end by t = ``spherical._CIRCLE_T`` (past it the last node sets the Cauchy-circle radius, and
    so the values), else the t bytes, which never replace a rule's table.  A held table answers
    ``ts`` that are its columns or start them, as held[:, :len(ts)] (a shorter rule's nodes
    start a longer one's); a longer rule replaces it, built on ``ts`` and held at once.  Else a
    table is held from its second build, which finds its key hash remembered.  A table built
    once answers until the next build, which drops it and then reuses its memory: so a fresh
    round trip's one table (:func:`wave_packet`), asked for by the packet and then by
    :func:`hc_transform`, is built once and not held past the next round trip."""
    tb = ts.tobytes()
    rule = spherical._rule_panels(ts) and ts[-1] <= spherical._CIRCLE_T  # rule nodes ascend
    key = (G, order, lams.tobytes(), True if rule else tb)
    cols, held = _PHI_CACHE.get(key, (tb, None))
    replace = len(cols) < len(tb)  # a held rule's columns start every longer rule's
    if held is not None and not replace:
        return held[:, :len(ts)]
    if _PHI_ONCE:
        _PHI_CACHE.pop(_PHI_ONCE.pop(), None)
    out = (phi, phi_d1, phi_d2)[order](G, lams, ts)
    if not replace and _PHI_ASKED.pop(hash(key), None) is None and out.nbytes <= _PHI_CACHE_BYTES:
        _PHI_ONCE.append(key)
        _PHI_ASKED[hash(key)] = out.nbytes
        while sum(_PHI_ASKED.values()) > _PHI_CACHE_BYTES:
            _PHI_ASKED.pop(next(iter(_PHI_ASKED)))
    _PHI_CACHE.pop(key, None)  # its bytes are not counted twice, and it is held as the newest
    if out.nbytes <= _PHI_CACHE_BYTES:
        while sum(table.nbytes for _, table in _PHI_CACHE.values()) + out.nbytes > _PHI_CACHE_BYTES:
            _PHI_CACHE.pop(next(iter(_PHI_CACHE)))
        _PHI_CACHE[key] = (tb, out)
    return out


def _mirror_fold(lams: np.ndarray):
    """(rows, fold) with phi_{lams[i]} = row fold[i] of phi on ``rows`` (phi is even in
    lam), for a 1-D ``lams``: one row per pair lam, -lam, its member with Re lam > 0, or
    Re lam = 0 and Im lam >= 0 (|lam| on the real axis).  Points symmetric about 0 to
    rounding fold i <-> n-1-i; others merge equal members."""
    n, mods = len(lams), np.abs(lams)
    # each point's member of its pair: a real grid's are |lam|; + 0.0 turns -0 into 0
    canon = mods if lams.dtype.kind == "f" else np.where(
        (lams.real < 0.0) | (lams.real == 0.0) & (lams.imag < 0.0), -lams, lams) + 0.0
    # within 8 machine epsilons (2^-49) of the largest modulus; a NaN fails
    if np.abs(lams + lams[::-1]).max(initial=0.0) <= 2.0**-49 * mods.max(initial=0.0):
        index = np.arange(n)
        return canon[n // 2:], np.maximum(index, index[::-1]) - n // 2
    return np.unique(canon, return_inverse=True)


def _real_times(table: np.ndarray, w: np.ndarray) -> np.ndarray:
    """table @ w for a real table and a C-contiguous complex vector or matrix, without a
    complex copy of the table: one real product against ``w`` read in place as (real,
    imaginary) pairs, whose result read as complex is the answer."""
    out = table @ w.view(float).reshape(len(w), -1)
    return out.view(complex).reshape(out.shape[:1] + w.shape[1:])


@dataclass(eq=False)
class _Rule:
    """A composite rule with its measure's density at the nodes, and for a radial
    rule a weight column per estimate."""
    nodes: np.ndarray
    weights: np.ndarray
    density: np.ndarray


@functools.lru_cache(maxsize=_RULE_CACHE_SIZE)
def _radial_rule(G: GroupDatum, T: float) -> _Rule:
    """The radial rule (:func:`spherical._rule_nodes`) on [0, T], T a whole number of its
    panels as every cutoff is, with the Haar density; weights K51 and G25 as held there."""
    nodes, weights, _ = spherical._rule_nodes(math.ceil(T / spherical._T_PANEL))
    return _Rule(nodes, weights, haar_density(G, nodes))


@functools.lru_cache(maxsize=_RULE_CACHE_SIZE)
def _uniform_rule(G: GroupDatum, grid: bytes, refine: int) -> tuple[_Rule, bool]:
    """(rule, on_grid): the trapezoid rule on [0, L] of spacing h / 2^refine, h = 2 L / (n - 1)
    for the n points of the grid whose bytes are ``grid`` and its end L, with the Plancherel
    density: that weight at every node but L, and for an odd count 0, which take half of it.
    On the grid's |lam| rows (:func:`_mirror_fold`) when refine is 0 and the grid is uniform
    to rounding (within 2^-49 L of np.linspace(-L, L, n), folded i <-> n-1-i), else on those
    of np.linspace(-L, L, m), m = (n - 1) 2^refine + 1."""
    grid = np.frombuffer(grid)
    n, L = len(grid), float(grid[-1])
    m, rows = (n - 1) * 2**refine + 1, _mirror_fold(grid)[0]
    on_grid = (refine == 0 and len(rows) == n - n // 2
               and np.abs(grid - np.linspace(-L, L, n)).max() <= 2.0**-49 * L)
    nodes = rows if on_grid else np.abs(np.linspace(-L, L, m)[m // 2:])
    h = 2.0 * L / max(m - 1, 1)  # not nodes[1] - nodes[0], which carries rounding
    weights = np.full(len(nodes), h)
    weights[[0, -1] if m % 2 else -1] = 0.5 * h
    return _Rule(nodes, weights, cfunction.plancherel_density(G, nodes)), on_grid


def _forward_envelope(G: GroupDatum, decay: ExpDecay, strip: float = 0.0) -> ExpDecay:
    """Envelope of f phi_lam Delta for |Im lam| <= strip and f of envelope ``decay``,
    since |phi_lam(t)| <= e^{strip t} Xi(t)."""
    return ExpDecay(decay.coeff * _XI_ENVELOPE, decay.rate - G.rho - strip, decay.degree + 1)


def _radial_cutoff(G: GroupDatum, decay: ExpDecay, abs_tol: float) -> float:
    """hc_transform's truncation T for a profile of envelope ``decay``, in steps of 4: any
    other step would move every cutoff."""
    return 4.0 * math.ceil(truncation_point(_forward_envelope(G, decay), abs_tol) / 4.0)


def _require_schwartz(f: RadialProfile, rate: float, what: str):
    floor = ExpDecay(coeff=1.0, rate=rate, degree=-2)
    if not f.decay.stronger_than(floor):
        raise PreconditionError(
            f"{what} decay e^(-{f.decay.rate} t) (1+t)^{f.decay.degree} is not "
            f"strictly stronger than e^(-{rate} t) (1+t)^-2"
        )


# ---------------------------------------------------------------------------
# forward transform
# ---------------------------------------------------------------------------

def hc_transform(
    G: GroupDatum,
    f: RadialProfile,
    grid: Optional[np.ndarray] = None,
    q: QuadratureSpec = DEFAULT_QUAD,
) -> TransformResult:
    """Sampled forward transform (Hf)(lam) = int_0^oo f phi_lam Delta dt.

    The grid is checked against the SpectralFunction contract before any
    table is built, and the output satisfies that contract (symmetric grid,
    Weyl-even values); per-sample err_est combines the difference of the
    K51 value and its embedded G25 estimate with the envelope tail bound and
    must sit below the quadrature tolerance, else AccuracyError.  ``f`` is
    evaluated once, on the K51 nodes, and one table serves both estimates.
    """
    # the result: its grid is checked here, before any table is built, and its values (the
    # grid's until then) and decay are set once they are known
    grid = default_spectral_grid() if grid is None else grid
    spectral = SpectralFunction(grid, grid, None, label=f"H[{f.label or 'f'}]")
    grid = spectral.grid
    _require_schwartz(f, G.rho, "hc_transform input")
    env = _forward_envelope(G, f.decay)
    T = _radial_cutoff(G, f.decay, q.abs_tol)
    rule = _radial_rule(G, T)
    rows, fold = _mirror_fold(grid)
    w = rule.weights * (rule.density * np.asarray(f(rule.nodes), dtype=complex))[:, None]
    vals_fine, vals_coarse = _real_times(_phi_block(G, rows, rule.nodes), w).take(fold, axis=0).T
    mags = np.abs(vals_fine)
    err = np.abs(vals_fine - vals_coarse) + env.tail_integral(T)
    # loosen the floor by the integrand scale: the rule pair resolves to
    # machine precision relative to the largest sample
    scale_floor = 1e-13 * max(1.0, float(mags.max()))
    ok = err <= np.maximum(q.tolerance(mags), scale_floor)  # a NaN value fails
    if not ok.all():
        k = int(np.argmax(err))
        raise AccuracyError(
            f"hc_transform quadrature failure at {len(ok) - int(ok.sum())} samples; "
            f"worst lam = {grid[k]} with err_est {err[k]:.3e}",
            value=vals_fine,
            err_est=err,
        )
    # the envelope (1 + |lam|)^-6 that the samples meet
    coeff = float((mags * (1.0 + np.abs(grid)) ** 6.0).max())
    spectral.values = vals_fine
    spectral.decay = SpectralDecay(coeff=1.05 * coeff + 1e-300, power=6.0)
    return TransformResult(spectral=spectral, err_est=err)


def hc_transform_at(G: GroupDatum, f: RadialProfile, lam, q: QuadratureSpec = DEFAULT_QUAD):
    """Forward transform at one spectral point, or at an array of them,
    possibly complex (direct adaptive quadrature).

    Independent of the fixed-grid tables in :func:`hc_transform`; used as
    the eigenfunction/transform cross-check (f * phi_lam)(1) and on the
    spectral tube.  |phi_lam(t)| <= e^{|Im lam| t} Xi(t), so the decay of
    ``f`` must be strictly stronger than e^{-(rho + |Im lam|) t} (1+t)^-2
    for the largest |Im lam|, which also sets the truncation point.  An
    array is one vector integrand on one panel tree, a ``phi`` block per panel
    with one row per pair lam, -lam (:func:`_mirror_fold`: phi is even in lam, so both
    get the same bits), and each value meets its own tolerance.
    Returns a complex for a scalar ``lam`` and a complex array shaped like ``lam`` otherwise.
    """
    lams = np.asarray(spherical._finite_array(lam, "biufc", "hc_transform_at requires finite lam"),
                      dtype=complex)
    if lams.size == 0:
        return lams
    strip = float(np.max(np.abs(lams.imag)))
    _require_schwartz(f, G.rho + strip, "hc_transform input")
    T = truncation_point(_forward_envelope(G, f.decay, strip), q.abs_tol)
    rows, fold = _mirror_fold(lams.ravel()) if lams.ndim else (lams, None)  # a scalar: one row

    def integrand(t):
        return np.asarray(f(t), dtype=complex) * phi(G, rows, t) * haar_density(G, t)

    value, _ = integrate_interval(integrand, 0.0, T, q)
    return complex(value) if lams.ndim == 0 else value[fold].reshape(lams.shape)


# ---------------------------------------------------------------------------
# convolution at the identity
# ---------------------------------------------------------------------------

def convolve_at_identity(
    G: GroupDatum, f: RadialProfile, g: RadialProfile, q: QuadratureSpec = DEFAULT_QUAD
) -> complex:
    """(f * g)(1) = int_0^oo f(t) g(t) Delta(t) dt for radial Schwartz pairs.

    Symmetric in (f, g) by construction.
    """
    _require_schwartz(f, G.rho, "convolution factor")
    _require_schwartz(g, G.rho, "convolution factor")
    rate = f.decay.rate + g.decay.rate - 2.0 * G.rho
    if rate <= 0:
        raise PreconditionError("combined decay too weak against the Haar weight")
    env = ExpDecay(
        coeff=f.decay.coeff * g.decay.coeff,
        rate=rate,
        degree=f.decay.degree + g.decay.degree,
    )
    T = truncation_point(env, q.abs_tol)

    def integrand(t):
        return np.asarray(f(t), dtype=complex) * np.asarray(g(t), dtype=complex) * haar_density(G, t)

    value, _ = integrate_interval(integrand, 0.0, T, q)
    return complex(value)


# ---------------------------------------------------------------------------
# wave packets (the inverse map)
# ---------------------------------------------------------------------------

def _check_symbol(a: SpectralFunction, what: str = "symbol"):
    if not a.decay.power >= 4:
        raise PreconditionError(f"{what} decay power {a.decay.power} < 4")
    defect = a.weyl_defect()
    # 1e-8 (1 + scale) is at least 1e-8, so the scale is taken only above it; NaN fails too
    if not (defect <= 1e-8 or defect <= 1e-8 * (1.0 + a.scale())):
        raise PreconditionError(
            f"{what} has odd part {defect:.3e} above the 1e-8 Weyl-evenness tolerance"
        )


def _symbol_node_values(a: SpectralFunction, nodes: np.ndarray) -> np.ndarray:
    """Even part of the symbol at positive quadrature nodes."""
    if a.fn is not None:
        return 0.5 * (a(nodes) + a(-nodes))
    return _local_interp(a.grid, a.even_values(), nodes)


def wave_packet(G: GroupDatum, a: SpectralFunction) -> RadialProfile:
    """Wave packet psi_a(t) = (c_P/|W|) int_R a(nu) phi_nu(t) |c(nu)|^-2 dnu.

    Returns the packet as a RadialProfile.  The symbol must be Weyl-even
    with decay power >= 4, and carry an evaluator ``fn`` that is its
    analytic continuation.  The integrand is even and analytic in a strip
    about the real axis, so the trapezoid rule converges geometrically on it
    (Trefethen & Weideman, SIAM Rev. 56, 2014): on a grid uniform to rounding,
    of n points on [-L, L], the integral is the rule of spacing h = 2 L / (n - 1)
    on the grid's |lam| rows, the rows :func:`hc_transform` reads on that grid,
    with the even part of the samples (:func:`_uniform_rule`).  It takes no
    tolerance, and ``fn`` is not called on the real line.

    Sampling nu at spacing h makes the rule periodic in t with period 2 pi / h, and on
    SL2R the density's poles at +-i/2 add an error of about e^{t/2 - pi/h}.  So each column
    t takes the grid's rule while t <= t_max(h) = 2 pi / h - 80, rounded down to a whole
    number of 2.0-wide radial panels (44 on the default grid), and past it ``fn`` on the
    nodes of spacing h / 2^k, for the smallest k with t <= t_max(h / 2^k); a grid that is
    not uniform takes ``fn`` from k = 0 on, at spacing 2 L / (n - 1).  A rule of ``fn``
    drops its highest nodes while their charges add up to less than 2^-60 sum|charge| in
    modulus, which moves the packet by less than that times Xi(t).  The constant 80 is
    measured: on SL2R the packets of exp(-nu^2), nu^2 exp(-nu^2), (1 + nu^2) exp(-nu^2)
    and exp(-nu^2/4) on L = 12 reach their floor (below) at t = 2 pi / h - 55 to 58, and a
    tenth of it at 2 pi / h - 61 to 64, for h from 0.03 to 0.0625; on H3 and CH2 they reach
    it at 2 pi / h - 10 and - 17.  So a column's rule is a function of (a, t) alone, whatever
    else is in its batch (the last bits of ``phi``'s own block product still move with the
    block's width), and the columns below t_max start a radial rule's nodes, and keep its
    table.
    The values and both t-derivatives take finite ``t`` of any shape, and read their blocks,
    on the flattened ``t``, from the one table cache, :func:`_phi_block`; the values of the
    last ``t`` are held (a copy each call).  A fresh round trip on one uniform grid so asks
    ``phi`` for one table: the envelope check below builds it on every row of the grid, and
    :func:`hc_transform` reads the held values and finds the table there.

    ``decay`` bounds the exact packet; the evaluated one is within its
    roundoff floor 1e-14 sum|charge| (1 + t) e^{-rho t} of it, sum|charge| that of the
    rule of spacing h.  It comes from a contour shift of ``fn``.  For real nu,
    phi_nu |c(nu)|^-2 = Phi_nu / c(-nu) + Phi_{-nu} / c(nu), so for an even symbol
    psi_a(t) = (2 c_P/|W|) int_R a(nu) Phi_nu(t) / c(-nu) dnu.  Neither factor has a pole on Im nu > 0 (Koornwinder 1984), so the line
    moves to Im nu = sigma, where |e^{i nu t}| = e^{-sigma t}: for t >= t0,
    |psi(t)| <= C_sigma e^{-(rho + sigma) t} (:func:`_contour_ladder`, uncached for an
    unhashable ``fn``), and for t < t0, |psi(t)| <= sum |charge|, since |phi_nu| <= Xi <= 1.
    Of the usable sigma, :func:`_envelope_choice` takes the one that gives
    :func:`hc_transform` the shortest T, held per (G, ladder, sum|charge|).  Each packet is
    then checked against that envelope plus the floor on the K51 nodes of [0, T], T that
    sigma's cutoff: there :func:`hc_transform` at the default tolerance reads it, and finds
    the values held.  PreconditionError naming the symbol when it has no ``fn``, when
    sum|charge| passes float range, when no contour shift is usable (named apart when every
    C_sigma passes float range), or when the packet
    leaves the envelope (an ``fn`` that is not the symbol's continuation, or a grid end L
    that cuts the symbol off, named with |a(L)| / max|a|); EvaluationError naming the first
    t there where the packet is not finite (an ``fn`` that is not finite on a node of a
    finer rule).
    """
    _check_symbol(a, "wave-packet symbol")
    name = a.label or "a"
    if a.fn is None:
        raise PreconditionError(f"wave-packet symbol {name!r} has no evaluator fn, "
                                "so its packet has no contour envelope")
    n, L = len(a.grid), float(a.grid[-1])
    # factor 2: even integrand reduced to [0, L]; 1/|W| folded against it
    prefactor = 2.0 * G.plancherel_constant / G.weyl_order
    grid, period = a.grid.tobytes(), math.inf if L == 0.0 else math.pi * (n - 1) / L  # 2 pi / h

    def rule_charges(k: int):
        # the nodes and charges of the rule of spacing h / 2^k: the samples on the grid's own
        # rule, every row of it, else fn, whose highest nodes go while below _CHARGE_DROP of
        # sum|charge| (a NaN or zero sum keeps them all)
        rule, on_grid = _uniform_rule(G, grid, k)
        if on_grid:
            return rule.nodes, prefactor * rule.weights * a.even_values()[n // 2:] * rule.density
        charge = prefactor * rule.weights * _symbol_node_values(a, rule.nodes) * rule.density
        tail = np.abs(charge)[::-1].cumsum()[::-1]  # sum |charge| from each node up
        kept = len(charge) - np.count_nonzero(tail < _CHARGE_DROP * tail[0])
        return rule.nodes[:kept], charge[:kept]

    with np.errstate(over="ignore", invalid="ignore"):  # charges past float range are named below
        grid_rule = rule_charges(0)
        charge_sum = float(np.abs(grid_rule[1]).sum())
    if not math.isfinite(charge_sum):
        raise PreconditionError(f"wave-packet symbol {name!r} has charges past float range: "
                                f"sum|charge| = {charge_sum!r}")

    def packet(t, order=0):
        # psi_a, or its t-derivative of ``order``, at ``t``, real as _real_array makes it
        if not np.isfinite(t).all():
            raise DomainError(f"wave packet requires finite t, got t = {t!r}")
        ts, cover = t.ravel(), np.minimum(t.ravel(), _UNDERFLOW_RHO_T / G.rho)
        # t_max(h / 2^k) = 2 pi 2^k / h - 80 rounded down to whole 2.0-wide panels, k = 0, 1, ...
        tops = [2.0 * np.floor(period / 2.0 - 40.0)]
        while tops[-1] < cover.max(initial=0.0):
            tops.append(2.0 * np.floor(period * 2.0 ** len(tops) / 2.0 - 40.0))
        if len(tops) == 1:  # every column on the grid's rule
            return _real_times(_phi_block(G, grid_rule[0], ts, order).T,
                               grid_rule[1]).reshape(t.shape)
        k, out = np.searchsorted(tops, cover), np.empty(t.size, dtype=complex)
        for j in np.unique(k):  # the columns of one rule read one table
            cols = np.flatnonzero(k == j)
            nodes, charge = grid_rule if j == 0 else rule_charges(int(j))
            out[cols] = _real_times(_phi_block(G, nodes, ts[cols], order).T, charge)
        return out.reshape(t.shape)

    last = [None, None]  # the last (shape, t bytes) and its values

    def eval_packet(t):
        # one product: hc_transform reads the packet where the envelope check just did
        ts = _real_array(t, "wave packet")
        key = (ts.shape, ts.tobytes())
        if last[0] != key:
            last[:] = key, packet(ts)
        return last[1].copy()

    try:
        ladder = _contour_ladder(G, a.fn)
    except TypeError:  # an unhashable fn is not cached
        ladder = _contour_ladder.__wrapped__(G, a.fn)
    if not ladder or ladder[0][1] == math.inf:
        why = ("every contour bound C_sigma passes float range" if ladder else "its fn rejects "
               "complex input, or is not finite or not small at the ends of Im nu = sigma")
        raise PreconditionError(f"wave-packet symbol {name!r} has no usable contour shift: {why}")
    (T, _), env = _envelope_choice(G, ladder, charge_sum)
    ts = _radial_rule(G, T).nodes  # where hc_transform reads the packet: its table is then held
    vals = np.abs(eval_packet(ts))
    # the floor, evaluator noise: roundoff of the quadrature dot against the
    # spherical-function envelope |phi_nu(t)| <= 2 (1+t) e^{-rho t}
    kappa = 1e-14 * charge_sum
    inside = vals <= env.bound(ts) + kappa * (1.0 + ts) * np.exp(-G.rho * ts)  # NaN is not
    if not inside.all():
        finite = np.isfinite(vals)
        if not finite.all():
            raise EvaluationError(f"wave packet is not finite at t = {float(ts[finite.argmin()])!r}")
        cut = abs(a.values[-1]) / a.scale()
        raise PreconditionError(f"wave packet of {name!r} leaves its contour envelope at t = "
                                f"{float(ts[inside.argmin()])!r}: fn is not its continuation, "
                                f"or the spectral integral's end L = {L!r} cuts "
                                f"the symbol off at |a(L)| / max|a| = {cut:.3g}")
    return RadialProfile(
        eval=eval_packet,
        decay=env,
        derivs=lambda t, k: packet(_real_array(t, "wave packet"), k),
        label=f"psi[{name}]",
    )


@functools.lru_cache(maxsize=_RULE_CACHE_SIZE)
def _contour_factors(G: GroupDatum):
    """:func:`_contour_ladder`'s rows z = x + i sigma and trapezoid weights, and its
    integrand's factor free of the symbol, on the rows of the ``done`` mask: ladders fill it
    as they need rows."""
    x, h = np.linspace(0.0, _CONTOUR_X, round(_CONTOUR_X / _CONTOUR_STEP) + 1, retstep=True)
    weights = h * np.concatenate([[0.5], np.ones(len(x) - 2), [0.5]])
    z = (x + 1j * _SIGMAS[:, None]).ravel()  # a row per sigma
    return z, weights, np.zeros(len(z)), np.zeros(len(z), dtype=bool)


@functools.lru_cache(maxsize=_RULE_CACHE_SIZE)
def _contour_ladder(G: GroupDatum, fn) -> tuple[tuple[float, float], ...]:
    """(sigma, C_sigma) for each sigma of ``_SIGMAS`` with a usable bound, where

        C_sigma = (2 c_P/|W|) int_R |a(x + i sigma)| |c(-x - i sigma)|^-1
                  sum_k |a_k(x + i sigma)| e^{-2 k t0} dx,

    a = ``fn`` on the line Im nu = sigma and a_k the coefficients of Phi_nu
    (:func:`_hc_coefficients`).  c and a_k are real functions of i nu, so their moduli are
    even in x, and the integral is the trapezoid rule on [0, X] over |a(x + i sigma)| +
    |a(-x + i sigma)|, taken as 0 where that is below 1e-20 of its peak on the line; the
    other factors are G's alone (:func:`_contour_factors`).  A sigma is usable when C_sigma
    is finite and the integrand at x = X, the rule's last node, is below ``_CONTOUR_END_TOL``
    of it.  When none is, the ladder holds the sigmas that fail only by C_sigma = inf, for the
    caller to name.  An ``fn`` that rejects complex input, by TypeError, ValueError or numpy's
    ComplexWarning on a cast to real, has none.
    """
    z, weights, factor, done = _contour_factors(G)
    with np.errstate(all="ignore"):  # a non-finite C_sigma only disqualifies its sigma
        try:
            with warnings.catch_warnings():  # a cast to real drops Im nu: fn rejects it
                warnings.simplefilter("error", _ComplexWarning)
                a_abs = (np.abs(np.asarray(fn(z), dtype=complex))
                         + np.abs(np.asarray(fn(-z.conj()), dtype=complex)))
        except (TypeError, ValueError, _ComplexWarning):
            return ()
        # the other factors grow at most polynomially in x: rows where |a| is below
        # 1e-20 of its peak on the line add nothing (NaN and inf rows stay, and rule out
        # their sigma)
        peak = np.max(a_abs.reshape(len(_SIGMAS), -1), axis=1)
        live = ~(a_abs < 1e-20 * np.repeat(peak, len(weights)))
        new = live & ~done
        if new.any():
            x0 = math.exp(-2.0 * _CONTOUR_T0)
            coef = _hc_coefficients(G, z[new], np.full(new.sum(), x0), z[new])
            factor[new] = (np.abs(coef) @ x0 ** np.arange(coef.shape[1])
                           * np.exp(-c_log(G, -z[new]).real))
            done |= new
        integrand = np.where(live, a_abs * factor, 0.0).reshape(len(_SIGMAS), -1)
        C = 2.0 * G.plancherel_constant / G.weyl_order * (integrand @ weights)
        ends = integrand[:, -1] <= _CONTOUR_END_TOL * C  # NaN is not
        usable = ends & np.isfinite(C)
    usable = usable if usable.any() else ends  # then every sigma of ends has C_sigma = inf
    return tuple(zip(_SIGMAS[usable].tolist(), C[usable].tolist()))


@functools.lru_cache(maxsize=_RULE_CACHE_SIZE)
def _envelope_choice(G: GroupDatum, ladder: tuple, charge_sum: float):
    """((T, tail bound), env) for :func:`wave_packet`: of the envelopes
    max(C_sigma, charge_sum e^{(rho + sigma) t0}) e^{-(rho + sigma) t}, with a margin, of
    ``ladder``'s (sigma, C_sigma), the one whose :func:`hc_transform` cutoff T at the default
    tolerance is shortest, ties going to the smaller tail bound."""
    envs = []
    for sigma, C in ladder:
        rate = G.rho + sigma
        coeff = _ENVELOPE_MARGIN * max(C, charge_sum * math.exp(rate * _CONTOUR_T0))
        envs.append(ExpDecay(coeff=coeff + 1e-300, rate=rate, degree=0))

    def cost(env):
        T = _radial_cutoff(G, env, DEFAULT_QUAD.abs_tol)
        return T, _forward_envelope(G, env).tail_integral(T)

    return min(((cost(env), env) for env in envs), key=lambda pair: pair[0])


# ---------------------------------------------------------------------------
# Plancherel pairing
# ---------------------------------------------------------------------------

def plancherel_pairing(
    G: GroupDatum,
    A: SpectralFunction,
    B: SpectralFunction,
) -> complex:
    """(c_P/|W|) int_R A(nu) B(nu) |c(nu)|^-2 dnu.

    For A = Hf and B = Hg this equals (f*g)(1); symmetric in (A, B).  The
    integral is the trapezoid rule on [0, L] (:func:`_uniform_rule`), so it takes no
    tolerance: on the rows of A's and B's one grid, read from their samples, when they
    share one uniform grid; else on the rows of np.linspace(-L, L, n), L the smaller end
    and n the larger count of the two grids (no coarser than either), from their
    evaluators or order-6 interpolation of their samples.
    """
    _check_symbol(A, "pairing factor")
    _check_symbol(B, "pairing factor")
    same = np.array_equal(A.grid, B.grid)
    L, n = min(float(A.grid[-1]), float(B.grid[-1])), max(len(A.grid), len(B.grid))
    rule, on_grid = _uniform_rule(G, (A.grid if same else np.linspace(-L, L, n)).tobytes(), 0)
    if same and on_grid:
        a_nodes, b_nodes = A.even_values()[n // 2:], B.even_values()[n // 2:]
    else:
        a_nodes, b_nodes = _symbol_node_values(A, rule.nodes), _symbol_node_values(B, rule.nodes)
    prefactor = 2.0 * G.plancherel_constant / G.weyl_order
    # a*b first: elementwise products commute bitwise, so the pairing is
    # exactly symmetric in (A, B)
    return complex(prefactor * np.sum((a_nodes * b_nodes) * (rule.weights * rule.density)))


# ---------------------------------------------------------------------------
# mollified expansion terms (the two-Cartan-class sum)
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=_RULE_CACHE_SIZE)
def _cached_transform(G: GroupDatum, f: RadialProfile, q: QuadratureSpec) -> SpectralFunction:
    return hc_transform(G, f, None, q).spectral


def expansion_term(
    G: GroupDatum,
    cartan_class: str,
    f: RadialProfile,
    lam: float,
    eps: float,
    q: QuadratureSpec = DEFAULT_QUAD,
) -> complex:
    """One Cartan-class contribution to the mollified spectral expansion.

    split:   (c_P/|W|) int Hf(nu) m_eps(nu; lam) |c(nu)|^-2 dnu, where
             m_eps is the Weyl-symmetrized Gaussian bump of width eps at
             +-lam, normalized to unit mass in the full pairing measure
             (c_P/|W|) |c(nu)|^-2 dnu.  As eps -> 0 this converges to
             Hf(lam).
    compact: identically 0 on spherical inputs (discrete-series
             characters annihilate them); kept so the two-term structure
             of the expansion stays visible.

    Both need the window lam +- 9 eps inside the sampled grid: |lam| + 9 eps <= GRID_MAX.
    """
    if cartan_class not in CARTAN_CLASSES:
        raise DomainError(f"cartan_class must be one of {CARTAN_CLASSES}")
    _real_scalar(eps, "expansion_term", "eps")
    if not 0.0 < eps <= 1.0:
        raise DomainError(f"mollifier width must be real and lie in (0, 1], got eps = {eps!r}")
    _real_scalar(lam, "expansion_term", "lam")
    half_window = 9.0 * eps
    if not abs(float(lam)) + half_window <= GRID_MAX:  # NaN fails too
        raise DomainError(f"expansion_term requires finite lam with |lam| + 9 eps <= {GRID_MAX}, "
                          f"got lam = {lam!r}, eps = {eps!r}")
    lam = abs(float(lam))
    lo, hi = lam - half_window, lam + half_window
    if not lo < hi:
        raise DomainError(f"mollifier width eps = {eps!r} is below the float spacing at "
                          f"lam = {lam!r}: the window lam +- 9 eps is one point")
    if cartan_class == "compact":
        return 0.0 + 0.0j
    hf = _cached_transform(G, f, q)
    pref = G.plancherel_constant / G.weyl_order

    # both Weyl-mirrored bumps folded onto one window (integrands even);
    # numerator and mass are one two-component integrand, one density call a panel
    def integrand(nu):
        bump, mod = np.exp(-0.5 * ((nu - lam) / eps) ** 2), np.abs(nu)
        dens = cfunction.plancherel_density(G, mod)
        return np.array([hf(mod) * bump * dens, dens * bump])

    (num, z), _ = integrate_interval(integrand, lo, hi, q)
    # pref * 2 * num over pref * 2 * z; kept explicit for the record
    return complex((pref * 2.0 * num) / (pref * 2.0 * z))


# ---------------------------------------------------------------------------
# radial Casimir and spectral multipliers
# ---------------------------------------------------------------------------

def casimir_radial(G: GroupDatum, p: RadialProfile, t) -> complex:
    """(Lp)(t) = p''(t) + (Delta'/Delta)(t) p'(t), the radial Casimir.

    Derivatives come from the profile's analytic evaluators.  t must be
    positive (Delta'/Delta has a pole at 0).
    """
    t_arr = np.atleast_1d(_real_array(t, "radial Casimir"))
    if not np.all(np.isfinite(t_arr)):
        raise DomainError(f"radial Casimir requires finite t, got t = {t!r}")
    if np.any(t_arr <= 0.0):
        raise SingularPointError("radial Casimir is singular at t = 0; use t > 0")
    d2 = np.asarray(p.deriv(t_arr, 2), dtype=complex)
    d1 = np.asarray(p.deriv(t_arr, 1), dtype=complex)
    out = d2 + haar_log_derivative(G, t_arr) * d1
    if np.ndim(t) == 0:
        return complex(out[0])
    return out


def spectral_multiplier(a: SpectralFunction, m, degree: int = 2) -> SpectralFunction:
    """Pointwise product m(lam) * a(lam) on the sampled grid.

    ``degree`` is the polynomial growth order of m, used to reduce the
    decay metadata honestly.
    """
    m_grid = np.asarray(m(a.grid))
    new_values = a.values * m_grid
    growth = np.abs(m_grid) / (1.0 + np.abs(a.grid)) ** degree
    c_m = float(np.max(growth)) if len(a.grid) else 0.0
    new_fn = None
    if a.fn is not None:
        old_fn = a.fn
        new_fn = lambda x: np.asarray(old_fn(x)) * np.asarray(m(np.asarray(x)))
    return SpectralFunction(
        grid=a.grid,
        values=new_values,
        decay=SpectralDecay(
            coeff=1.05 * a.decay.coeff * max(c_m, 1e-300),
            power=a.decay.power - degree,
        ),
        fn=new_fn,
        label=f"m*{a.label}" if a.label else "m*a",
    )
