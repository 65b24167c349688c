"""Forward spherical transform, wave-packet inverse, Plancherel pairing,
mollified expansion terms, and the radial Casimir multiplier identity.

All spectral and radial integrals run on fixed composite Gauss-Legendre
grids (nodes independent of the evaluation point), so results are
deterministic, evaluation errors vary smoothly, and the expensive
spherical-function tables are shared across operations.  Error estimates
come from a coarse/fine rule pair on identical panels plus explicit
envelope tail bounds; reductions are numpy dots (fixed pairwise order).

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
import weakref
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import cfunction
from .errors import (
    AccuracyError,
    DomainError,
    GridContractError,
    PreconditionError,
    SingularPointError,
)
from .groups import GroupDatum, haar_density, haar_log_derivative
from .specfun import (
    DEFAULT_QUAD,
    ExpDecay,
    QuadratureSpec,
    composite_gl_nodes,
    integrate_interval,
    truncation_point,
)
from .spherical import RadialProfile, phi, phi_d1, phi_d2

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

# fixed engine rules
_T_PANEL = 0.5
_T_ORDER_FINE = 16
_T_ORDER_COARSE = 10
_NU_PANEL = 0.75
_NU_ORDER = 20
# rules held per cache: a shared perfbench warm-up holds 10 radial and 6 spectral rules
_RULE_CACHE_SIZE = 64
# order of the local polynomial interpolation of sampled spectral functions
_INTERP_ORDER = 6

# bound for Xi(t) e^{rho t} / (1 + t) on the shipped presets, used only
# for truncation planning of forward integrals
_XI_ENVELOPE = 2.0

CARTAN_CLASSES = ("split", "compact")


def _require_symmetric(grid: np.ndarray, message: str):
    """GridContractError unless grid[i] = -grid[n-1-i] to 1e-12 absolute."""
    if not np.allclose(grid, -grid[::-1], rtol=0.0, atol=1e-12):
        raise GridContractError(message)


def default_spectral_grid(count: int = GRID_COUNT, lam_max: float = GRID_MAX) -> np.ndarray:
    if count % 2 == 0:
        raise GridContractError("spectral grid count must be odd (symmetric about 0)")
    return np.linspace(-lam_max, lam_max, count)


# ---------------------------------------------------------------------------
# spectral-side data types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpectralDecay:
    """Envelope |a(lam)| <= coeff * (1 + |lam|)^(-power)."""

    coeff: float
    power: float

    def bound(self, lam):
        return self.coeff * (1.0 + np.abs(lam)) ** (-self.power)


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
        self.grid = np.asarray(self.grid, dtype=float)
        self.values = np.asarray(self.values, dtype=complex)
        if self.grid.ndim != 1 or len(self.grid) != len(self.values):
            raise GridContractError("grid and values must be 1-d and equally long")
        if np.any(np.diff(self.grid) <= 0):
            raise GridContractError("grid must be strictly increasing")
        _require_symmetric(self.grid, "grid must be symmetric about 0")

    @classmethod
    def from_function(cls, fn, grid, decay: SpectralDecay, label: str = "") -> "SpectralFunction":
        grid = np.asarray(grid, dtype=float)
        values = np.asarray(fn(grid), dtype=complex)
        return cls(grid=grid, values=values, decay=decay, fn=fn, label=label)

    def __call__(self, x):
        if self.fn is not None:
            out = np.asarray(self.fn(np.asarray(x, dtype=float)), dtype=complex)
            return complex(out.reshape(())) if np.ndim(x) == 0 else out
        out = _local_interp(self.grid, self.values, x)
        return complex(out[0]) if np.ndim(x) == 0 else out

    def weyl_defect(self) -> float:
        return float(np.max(np.abs(self.values - self.values[::-1])))

    def even_values(self) -> np.ndarray:
        return 0.5 * (self.values + self.values[::-1])

    def scale(self) -> float:
        return float(np.max(np.abs(self.values))) if len(self.values) else 0.0


def _local_interp(grid: np.ndarray, values: np.ndarray, x) -> np.ndarray:
    order = _INTERP_ORDER
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    n = len(grid)
    if n < order + 1:
        raise GridContractError(f"grid of {n} points cannot support order-{order} interpolation")
    spacing = grid[-1] - grid[-2]
    if np.any(x_arr < grid[0] - spacing) or np.any(x_arr > grid[-1] + spacing):
        raise DomainError("interpolation query outside the sampled grid")
    xq = np.clip(x_arr, grid[0], grid[-1])
    start = np.clip(np.searchsorted(grid, xq) - (order + 1) // 2, 0, n - (order + 1))
    out = np.zeros(xq.shape, dtype=complex)
    for j in range(order + 1):
        lj = np.ones_like(xq)
        xj = grid[start + j]
        for k in range(order + 1):
            if k == j:
                continue
            xk = grid[start + k]
            lj = lj * (xq - xk) / (xj - xk)
        out += lj * values[start + j]
    return out


@dataclass(eq=False)
class TransformResult:
    """Sampled forward transform plus a per-sample quadrature error estimate."""

    spectral: SpectralFunction
    err_est: np.ndarray
    group: GroupDatum


# ---------------------------------------------------------------------------
# shared quadrature tables
# ---------------------------------------------------------------------------

# real phi tables; the oldest go once the byte cap is passed, a larger one is not kept
_PHI_CACHE: dict[tuple, np.ndarray] = {}
_PHI_CACHE_BYTES = 256 * 2**20


def _phi_block(G: GroupDatum, lams: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """Real matrix phi[lam_i, t_j] for real lam_i, held in the table cache."""
    key = (G, lams.tobytes(), ts.tobytes())
    hit = _PHI_CACHE.get(key)
    if hit is not None:
        return hit
    out = phi(G, lams, ts)
    if out.nbytes <= _PHI_CACHE_BYTES:
        while sum(v.nbytes for v in _PHI_CACHE.values()) + out.nbytes > _PHI_CACHE_BYTES:
            _PHI_CACHE.pop(next(iter(_PHI_CACHE)))
        _PHI_CACHE[key] = out
    return out


def _mirror_fold(lams: np.ndarray):
    """(rows, fold) with phi_{lams[i]} = row fold[i] of phi on ``rows`` (phi is even in
    lam): a grid symmetric about 0 to rounding folds i <-> n-1-i, else equal |lam| merge."""
    n, scale = len(lams), np.abs(lams).max(initial=0.0)
    if np.all(np.abs(lams + lams[::-1]) <= 8.0 * np.finfo(float).eps * scale):
        return np.abs(lams[n // 2:]), np.maximum(np.arange(n), np.arange(n)[::-1]) - n // 2
    return np.unique(np.abs(lams), return_inverse=True)


def _real_times(table: np.ndarray, w: np.ndarray) -> np.ndarray:
    """table @ w for a real table and a complex vector, without a complex copy of the table."""
    out = table @ np.stack([w.real, w.imag], axis=1)
    return out[:, 0] + 1j * out[:, 1]


@dataclass(eq=False)
class _RadialRule:
    T: float
    nodes: np.ndarray
    weights: np.ndarray
    delta: np.ndarray


@functools.lru_cache(maxsize=_RULE_CACHE_SIZE)
def _radial_rule(G: GroupDatum, T: float, order: int) -> _RadialRule:
    n_panels = max(2, int(math.ceil(T / _T_PANEL)))
    nodes, weights = composite_gl_nodes(0.0, T, n_panels, order)
    return _RadialRule(T, nodes, weights, haar_density(G, nodes))


@dataclass(eq=False)
class _SpectralRule:
    L: float
    nodes: np.ndarray  # on (0, L]
    weights: np.ndarray
    dens: np.ndarray


def _spectral_order(t_max: float = 12.0) -> int:
    """Panel order of the spectral rule for a packet evaluated up to ``t_max``.

    The order grows with the largest radial point, because the integrand
    oscillates like exp(i nu t): order ~ panel_width * t / 2 plus margin
    keeps Gauss-Legendre in its superconvergent regime.
    """
    bucket = 8.0 * math.ceil(max(t_max, 1.0) / 8.0)
    return int(min(48, max(_NU_ORDER, math.ceil(0.375 * bucket) + 10)))


@functools.lru_cache(maxsize=_RULE_CACHE_SIZE)
def _spectral_rule(G: GroupDatum, L: float, order: int) -> _SpectralRule:
    """Half-line spectral rule on (0, L] with panels of the given order."""
    n_panels = max(2, int(math.ceil(L / _NU_PANEL)))
    nodes, weights = composite_gl_nodes(0.0, L, n_panels, order)
    return _SpectralRule(L, nodes, weights, cfunction.plancherel_density(G, nodes))


def _forward_truncation(G: GroupDatum, f: RadialProfile, q: QuadratureSpec) -> float:
    """Truncation point for int f phi Delta, from the profile envelope."""
    env = ExpDecay(
        coeff=f.decay.coeff * _XI_ENVELOPE,
        rate=f.decay.rate - G.rho,
        degree=f.decay.degree + 1,
    )
    T = truncation_point(env, q.abs_tol)
    return 4.0 * math.ceil(T / 4.0)  # bucket for table reuse


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

    The output satisfies the SpectralFunction contract (symmetric grid,
    Weyl-even values); per-sample err_est combines a coarse/fine rule
    difference with the envelope tail bound and must sit below the
    quadrature tolerance, else AccuracyError.
    """
    _require_schwartz(f, G.rho, "hc_transform input")
    if grid is None:
        grid = default_spectral_grid()
    grid = np.asarray(grid, dtype=float)
    T = _forward_truncation(G, f, q)
    fine = _radial_rule(G, T, _T_ORDER_FINE)
    coarse = _radial_rule(G, T, _T_ORDER_COARSE)
    f_fine = np.asarray(f(fine.nodes), dtype=complex)
    f_coarse = np.asarray(f(coarse.nodes), dtype=complex)
    rows, fold = _mirror_fold(grid)
    w_fine, w_coarse = fine.weights * fine.delta * f_fine, coarse.weights * coarse.delta * f_coarse
    vals_fine = _real_times(_phi_block(G, rows, fine.nodes), w_fine)[fold]
    vals_coarse = _real_times(_phi_block(G, rows, coarse.nodes), w_coarse)[fold]
    env = ExpDecay(f.decay.coeff * _XI_ENVELOPE, f.decay.rate - G.rho, f.decay.degree + 1)
    tail = env.tail_integral(T)
    err = np.abs(vals_fine - vals_coarse) + tail
    tol = np.maximum(q.abs_tol, q.rel_tol * np.abs(vals_fine))
    # loosen the floor by the integrand scale: the rule pair resolves to
    # machine precision relative to the largest sample
    scale_floor = 1e-13 * max(1.0, float(np.max(np.abs(vals_fine))))
    bad = err > np.maximum(tol, scale_floor)
    if np.any(bad):
        k = int(np.argmax(err))
        raise AccuracyError(
            f"hc_transform quadrature failure at {int(np.sum(bad))} samples; "
            f"worst lam = {grid[k]} with err_est {err[k]:.3e}",
            value=vals_fine,
            err_est=err,
        )
    spectral = SpectralFunction(
        grid=grid,
        values=vals_fine,
        decay=_fit_spectral_decay(grid, vals_fine),
        label=f"H[{f.label or 'f'}]",
    )
    return TransformResult(spectral=spectral, err_est=err, group=G)


def _fit_spectral_decay(grid: np.ndarray, values: np.ndarray, power: float = 6.0) -> SpectralDecay:
    coeff = float(np.max(np.abs(values) * (1.0 + np.abs(grid)) ** power))
    return SpectralDecay(coeff=1.05 * coeff + 1e-300, power=power)


def hc_transform_at(
    G: GroupDatum, f: RadialProfile, lam, q: QuadratureSpec = DEFAULT_QUAD
) -> complex:
    """Forward transform at a single, possibly complex, spectral point
    (direct adaptive quadrature).

    Independent of the fixed-grid tables in :func:`hc_transform`; used as
    the eigenfunction/transform cross-check (f * phi_lam)(1) and on the
    spectral tube.  |phi_lam(t)| <= e^{|Im lam| t} Xi(t), so the decay of
    ``f`` must be strictly stronger than e^{-(rho + |Im lam|) t} (1+t)^-2.
    """
    lam = complex(lam)
    _require_schwartz(f, G.rho + abs(lam.imag), "hc_transform input")
    env = ExpDecay(f.decay.coeff * _XI_ENVELOPE, f.decay.rate - G.rho - abs(lam.imag),
                   f.decay.degree + 1)
    T = truncation_point(env, q.abs_tol)

    def integrand(t):
        return np.asarray(f(t), dtype=complex) * phi(G, lam, t) * haar_density(G, t)

    value, _ = integrate_interval(integrand, 0.0, T, q)
    return complex(value)


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
    if a.decay.power < 4:
        raise PreconditionError(f"{what} decay power {a.decay.power} < 4")
    defect = a.weyl_defect()
    if defect > 1e-8 * (1.0 + a.scale()):
        raise PreconditionError(
            f"{what} has odd part {defect:.3e} above the 1e-8 Weyl-evenness tolerance"
        )


def _symbol_node_values(a: SpectralFunction, nodes: np.ndarray) -> np.ndarray:
    """Even part of the symbol at positive quadrature nodes."""
    if a.fn is not None:
        vp = np.asarray(a.fn(nodes), dtype=complex)
        vm = np.asarray(a.fn(-nodes), dtype=complex)
        return 0.5 * (vp + vm)
    return _local_interp(a.grid, a.even_values(), nodes)


def wave_packet(
    G: GroupDatum,
    a: SpectralFunction,
    t=None,
    q: QuadratureSpec = DEFAULT_QUAD,
) -> RadialProfile | complex:
    """Wave packet psi_a(t) = (c_P/|W|) int_R a(nu) phi_nu(t) |c(nu)|^-2 dnu.

    With ``t`` given, returns the value psi_a(t); otherwise returns the
    whole packet as a RadialProfile (evaluator plus inferred decay
    metadata).  The symbol must be Weyl-even with decay power >= 4.  The
    spectral node count adapts to the largest |t| requested per call;
    results for different call batches agree within the quadrature
    tolerance.
    """
    _check_symbol(a, "wave-packet symbol")
    L = float(a.grid[-1])
    # factor 2: even integrand reduced to (0, L]; 1/|W| folded against it
    prefactor = 2.0 * G.plancherel_constant / G.weyl_order
    charges: dict[int, tuple[_SpectralRule, np.ndarray]] = {}

    def _charged_rule(ts: np.ndarray):
        rule = _spectral_rule(G, L, _spectral_order(float(ts.max()) if ts.size else 1.0))
        hit = charges.get(id(rule))
        if hit is None:
            a_nodes = _symbol_node_values(a, rule.nodes)
            hit = (rule, prefactor * rule.weights * a_nodes * rule.dens)
            charges[id(rule)] = hit
        return hit

    def charged(block):
        # psi_a, or its t-derivative when ``block`` is phi_d1 or phi_d2
        def evaluate(ts):
            ts = np.atleast_1d(np.asarray(ts, dtype=float))
            rule, charge = _charged_rule(ts)
            return _real_times(block(G, rule.nodes, ts).T, charge)
        return evaluate

    eval_packet = charged(_phi_block)

    def noise_floor(ts):
        # evaluator noise: roundoff of the quadrature dot against the
        # spherical-function envelope |phi_nu(t)| <= 2 (1+t) e^{-rho t}
        _, charge = _charged_rule(ts)
        kappa = 1e-14 * float(np.sum(np.abs(charge)))
        return kappa * (1.0 + ts) * np.exp(-G.rho * ts)

    decay = _infer_packet_decay(G, eval_packet, noise_floor)
    profile = RadialProfile(
        eval=eval_packet,
        decay=decay,
        d1=charged(phi_d1),
        d2=charged(phi_d2),
        label=f"psi[{a.label or 'a'}]",
    )
    if t is not None:
        return profile(t)
    return profile


def _infer_packet_decay(G: GroupDatum, eval_packet, noise_floor) -> ExpDecay:
    """Measured envelope c * e^{-r t} for a wave packet.

    Tries rates from a ladder starting at 2*rho + 1 (every rate stays
    strictly above rho, so the packet remains admissible for the forward
    transform).  Probe samples below the evaluator noise floor are
    treated as zero, so only genuine signal enters the certification.  A
    rate is certified once the scaled signal |psi| e^{rt} has visibly
    peaked inside the probe window: the trailing-segment maximum must
    drop below 1e-3 of the peak and decrease from one segment to the
    next.  Wave packets of rapidly decaying symbols pass at the top
    rate; stretched-exponential tails settle on a lower one.
    """
    rho = G.rho
    ladder = sorted(
        {2 * rho + 1.0, 2 * rho + 0.5, 2 * rho, 1.5 * rho, rho + 0.6, rho + 0.5},
        reverse=True,
    )
    ladder = [r for r in ladder if r > rho]
    for T_probe in (12.0, 20.0, 32.0, 48.0):
        ts = np.linspace(0.0, T_probe, int(8 * T_probe) + 1)
        vals = np.abs(eval_packet(ts))
        signal = np.where(vals > noise_floor(ts), vals, 0.0)
        if float(np.max(signal)) == 0.0:  # numerically the zero packet
            return ExpDecay(coeff=1e-300, rate=2 * rho + 1.0, degree=0)
        for rate in ladder:
            scaled = signal * np.exp(rate * ts)
            peak = float(np.max(scaled))
            cut1, cut2 = ts > 0.7 * T_probe, ts > 0.85 * T_probe
            seg1 = float(np.max(scaled[cut1 & ~cut2]))
            seg2 = float(np.max(scaled[cut2]))
            if seg2 < 1e-3 * peak and seg2 <= seg1:
                return ExpDecay(coeff=1.15 * peak + 1e-300, rate=rate, degree=0)
    raise AccuracyError(
        "could not certify an exponential envelope for the wave packet "
        "within the probe window"
    )


# ---------------------------------------------------------------------------
# Plancherel pairing
# ---------------------------------------------------------------------------

def plancherel_pairing(
    G: GroupDatum,
    A: SpectralFunction,
    B: SpectralFunction,
    q: QuadratureSpec = DEFAULT_QUAD,
) -> complex:
    """(c_P/|W|) int_R A(nu) B(nu) |c(nu)|^-2 dnu.

    For A = Hf and B = Hg this equals (f*g)(1); symmetric in (A, B).
    """
    _check_symbol(A, "pairing factor")
    _check_symbol(B, "pairing factor")
    L = min(float(A.grid[-1]), float(B.grid[-1]))
    rule = _spectral_rule(G, L, _spectral_order())
    a_nodes = _symbol_node_values(A, rule.nodes)
    b_nodes = _symbol_node_values(B, rule.nodes)
    prefactor = 2.0 * G.plancherel_constant / G.weyl_order
    # a*b first: elementwise products commute bitwise, so the pairing is
    # exactly symmetric in (A, B)
    return complex(prefactor * np.sum((a_nodes * b_nodes) * (rule.weights * rule.dens)))


# ---------------------------------------------------------------------------
# mollified expansion terms (the two-Cartan-class sum)
# ---------------------------------------------------------------------------

_HF_CACHE: "weakref.WeakKeyDictionary[RadialProfile, dict]" = weakref.WeakKeyDictionary()


def _cached_transform(G: GroupDatum, f: RadialProfile, q: QuadratureSpec) -> SpectralFunction:
    per_profile = _HF_CACHE.setdefault(f, {})
    key = (G, q.rel_tol, q.abs_tol)
    if key not in per_profile:
        per_profile[key] = hc_transform(G, f, None, q).spectral
    return per_profile[key]


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
    """
    if cartan_class not in CARTAN_CLASSES:
        raise DomainError(f"cartan_class must be one of {CARTAN_CLASSES}")
    if not (0.0 < eps <= 1.0):
        raise DomainError(f"mollifier width must lie in (0, 1], got {eps}")
    if cartan_class == "compact":
        return 0.0 + 0.0j
    lam = abs(float(lam))
    hf = _cached_transform(G, f, q)
    half_window = 9.0 * eps
    lo, hi = lam - half_window, lam + half_window
    pref = G.plancherel_constant / G.weyl_order

    def bump(nu):
        return np.exp(-0.5 * ((nu - lam) / eps) ** 2)

    # both Weyl-mirrored bumps folded onto one window (integrands even)
    def weighted(nu):
        dens = cfunction.plancherel_density(G, np.abs(nu))
        return hf(np.abs(nu)) * bump(nu) * dens

    def mass(nu):
        return cfunction.plancherel_density(G, np.abs(nu)) * bump(nu)

    num, _ = integrate_interval(weighted, lo, hi, q)
    z, _ = integrate_interval(mass, lo, hi, q)
    # pref * 2 * num over pref * 2 * z; kept explicit for the record
    return complex((pref * 2.0 * num) / (pref * 2.0 * z))


# ---------------------------------------------------------------------------
# radial Casimir and spectral multipliers
# ---------------------------------------------------------------------------

def casimir_radial(G: GroupDatum, p: RadialProfile, t) -> complex:
    """(Lp)(t) = p''(t) + (Delta'/Delta)(t) p'(t), the radial Casimir.

    Derivatives use the profile's analytic evaluators when present and
    central differences with step 1e-4 otherwise.  t must be positive
    (Delta'/Delta has a pole at 0).
    """
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
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
    new_values = a.values * np.asarray(m(a.grid), dtype=complex)
    growth = np.abs(np.asarray(m(a.grid))) / (1.0 + np.abs(a.grid)) ** degree
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
