"""Two-bus solvability laboratory.

A source with fixed voltage v0 (angle 0) feeds a single load s_l = p + jq
through the source impedance z_s = r_s + j x_s.  The load-side geometry in
the impedance plane (r_l, x_l) consists of two circles, one per power
component; their intersections are the possible load impedances.  The module
provides the closed-form voltage solutions, the circle geometry, the
max-power-transfer parabola in the power plane, the norm feasibility
condition, and basin-of-attraction scans of the fixed-point and
Newton-Raphson iterations over the complex voltage plane.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .fpi import SolveOptions, fixed_point
from .network import Branch, NetworkModel, SlackSpec

__all__ = [
    "TwoBusSystem",
    "CirclePair",
    "ParabolaCoeffs",
    "BasinMap",
    "closed_form_solutions",
    "load_circles",
    "circle_intersections",
    "radical_intercept",
    "tangency_altitude",
    "feasibility_parabola",
    "parabola_locus",
    "parabola_vertex_distance",
    "norm_feasible",
    "basin_scan",
    "tangency_load",
]

CLASS_HIGH = 0
CLASS_LOW = 1
CLASS_DIVERGED = 2
CLASS_NAMES = ("high", "low", "diverged")

# a converged start counts as a root's when it lands within this distance
_MATCH_TOLERANCE = 1e-6


def _check_source(z_s: complex, v0: float) -> None:
    """Reject a zero or non-finite source impedance, and a source voltage
    magnitude that is not positive and finite."""
    # written as ``not x > 0`` so that NaN is rejected too
    if not (cmath.isfinite(z_s) and abs(z_s) > 0):
        raise ValueError("source impedance must be finite and nonzero")
    if not 0 < v0 < math.inf:
        raise ValueError("source voltage magnitude must be positive and finite")


@dataclass(frozen=True)
class TwoBusSystem:
    """Source impedance, source voltage magnitude and load power, all p.u."""

    z_s: complex
    v0: float = 1.0
    s_l: complex = 0.0j

    def __post_init__(self) -> None:
        _check_source(self.z_s, self.v0)
        if not cmath.isfinite(self.s_l):
            raise ValueError("load power must be finite")

    def to_network(self) -> NetworkModel:
        """Equivalent one-demand-node network model."""
        br = Branch(0, 1, self.z_s.real, self.z_s.imag)
        return NetworkModel.from_branches(
            [br], 2, slack=SlackSpec(complex(self.v0))
        )


@dataclass(frozen=True)
class CirclePair:
    """Impedance-plane circles for the active and reactive power loci."""

    center_p: tuple[float, float]
    radius_p: float
    center_q: tuple[float, float]
    radius_q: float


@dataclass(frozen=True)
class ParabolaCoeffs:
    """Coefficients of G q^2 + H pq + I p^2 + J q + K p + L = 0."""

    G: float
    H: float
    I: float
    J: float
    K: float
    L: float

    @property
    def discriminant(self) -> float:
        return self.H * self.H - 4.0 * self.G * self.I

    def evaluate(self, p, q):
        return (
            self.G * q * q
            + self.H * p * q
            + self.I * p * p
            + self.J * q
            + self.K * p
            + self.L
        )


@dataclass
class BasinMap:
    """Per-start classification of an iterative solve over a voltage grid."""

    re_grid: np.ndarray
    im_grid: np.ndarray
    classes: np.ndarray  # int8 codes into CLASS_NAMES, shape (n_re, n_im)
    iterations: np.ndarray
    method: str

    def fraction(self, name: str) -> float:
        code = CLASS_NAMES.index(name)
        return float(np.mean(self.classes == code))

    def fraction_nonzero(self, name: str) -> float:
        """Fraction among starts excluding the origin cell (if on the grid)."""
        code = CLASS_NAMES.index(name)
        re, im = np.meshgrid(self.re_grid, self.im_grid, indexing="ij")
        nonzero = (re != 0.0) | (im != 0.0)
        return float(np.mean(self.classes[nonzero] == code))


def closed_form_solutions(sys: TwoBusSystem) -> list[complex]:
    """Load voltages solving v = v0 - z_s s* / v*, high-|v| first.

    Eliminating the conjugate gives a real quadratic in y = |v|^2:

        y^2 + (2 Re(z_s s*) - v0^2) y + |z_s|^2 |s|^2 = 0

    and v = (y + conj(z_s) s) / v0.  Infeasible loads return no roots.
    """
    s = sys.s_l
    if s == 0:
        return [complex(sys.v0)]
    b = 2.0 * (sys.z_s * np.conj(s)).real - sys.v0**2
    c = abs(sys.z_s) ** 2 * abs(s) ** 2
    disc = b * b - 4.0 * c
    # a discriminant at rounding level means the maximum-transfer double root
    if abs(disc) < 64.0 * np.finfo(float).eps * (b * b + 4.0 * c):
        ys = [-b / 2.0]
    elif disc < 0:
        return []
    else:
        root = math.sqrt(disc)
        ys = [(-b + root) / 2.0, (-b - root) / 2.0]
    if ys[0] <= 0:
        return []
    volts = [(y + np.conj(sys.z_s) * s) / sys.v0 for y in ys if y > 0]
    return [complex(v) for v in volts]


def solution_impedances(sys: TwoBusSystem) -> list[complex]:
    """Load impedances z_l = |v|^2 / s* for each closed-form voltage."""
    if sys.s_l == 0:
        return []
    return [
        abs(v) ** 2 / np.conj(sys.s_l) for v in closed_form_solutions(sys)
    ]


def load_circles(sys: TwoBusSystem) -> CirclePair:
    """Impedance-plane circles whose intersections carry (p, q) jointly.

    For the active power: center (v0^2/(2p) - r_s, -x_s) and radius
    |v0/(2p)| sqrt(v0^2 - 4 r_s p); the reactive circle swaps the roles of
    (r_s, p) and (x_s, q).  A negative radicand means that single-axis power
    is unreachable and the circle is empty (radius NaN).
    """
    p, q = sys.s_l.real, sys.s_l.imag
    if p == 0 or q == 0:
        raise ValueError(
            "load_circles requires nonzero p and q; degenerate axis-aligned "
            "loads reduce the circle to a line through the origin"
        )
    r_s, x_s = sys.z_s.real, sys.z_s.imag
    v2 = sys.v0**2

    rad_p = v2 - 4.0 * r_s * p
    rad_q = v2 - 4.0 * x_s * q
    radius_p = abs(sys.v0 / (2.0 * p)) * math.sqrt(rad_p) if rad_p >= 0 else math.nan
    radius_q = abs(sys.v0 / (2.0 * q)) * math.sqrt(rad_q) if rad_q >= 0 else math.nan
    return CirclePair(
        center_p=(v2 / (2.0 * p) - r_s, -x_s),
        radius_p=radius_p,
        center_q=(-r_s, v2 / (2.0 * q) - x_s),
        radius_q=radius_q,
    )


def circle_intersections(pair: CirclePair) -> list[tuple[float, float]]:
    """Intersection points of the two circles (0, 1 or 2 points)."""
    if math.isnan(pair.radius_p) or math.isnan(pair.radius_q):
        return []
    (x1, y1), r1 = pair.center_p, pair.radius_p
    (x2, y2), r2 = pair.center_q, pair.radius_q
    dx, dy = x2 - x1, y2 - y1
    d = math.hypot(dx, dy)
    if d == 0 or d > r1 + r2 or d < abs(r1 - r2):
        return []
    # distance from center 1 to the radical line along the center axis
    a = (d * d + r1 * r1 - r2 * r2) / (2.0 * d)
    h2 = r1 * r1 - a * a
    h = math.sqrt(max(h2, 0.0))
    xm, ym = x1 + a * dx / d, y1 + a * dy / d
    if h == 0:
        return [(xm, ym)]
    ox, oy = h * dy / d, -h * dx / d
    return [(xm + ox, ym + oy), (xm - ox, ym - oy)]


def radical_intercept(pair: CirclePair) -> float:
    """Vertical intercept of the radical line through the circle crossings.

    beta = (B0 - B1) / (2 (c2p - c2q)) with B0 = c1p^2 + c2p^2 + r_q^2 and
    B1 = c1q^2 + c2q^2 + r_p^2.  For circles generated from one (s, z_s, v0)
    the numerator vanishes: the radical line passes through the origin.
    """
    (c1p, c2p), r_p = pair.center_p, pair.radius_p
    (c1q, c2q), r_q = pair.center_q, pair.radius_q
    denom = 2.0 * (c2p - c2q)
    if denom == 0:
        raise ValueError(
            "circles share the ordinate of their centers; the radical line "
            "is vertical and has no intercept form"
        )
    b0 = c1p**2 + c2p**2 + r_q**2
    b1 = c1q**2 + c2q**2 + r_p**2
    return (b0 - b1) / denom


def tangency_altitude(pair: CirclePair, tol: float = 1e-9) -> float:
    """Altitude from the origin of the triangle of the two centers.

    Valid at the maximum-power-transfer point, where the circles touch
    externally; there h^2 = c1p^2 + c2p^2 - r_p^2 = ||z_s||^2.
    """
    (c1p, c2p), r_p = pair.center_p, pair.radius_p
    (c1q, c2q), r_q = pair.center_q, pair.radius_q
    d = math.hypot(c1p - c1q, c2p - c2q)
    if not math.isfinite(r_p + r_q) or abs(d - (r_p + r_q)) > max(tol, 1e-9 * d):
        raise ValueError(
            f"circles are not externally tangent: |centers|={d!r}, "
            f"r_p+r_q={r_p + r_q!r}"
        )
    return math.sqrt(c1p**2 + c2p**2 - r_p**2)


def tangency_load(z_s: complex, v0: float = 1.0) -> complex:
    """Load power at maximum transfer for this source: the unique-solution
    case, with ||s|| = v0^2 / (4 ||z_s||) and s aligned with z_s."""
    return v0**2 / (4.0 * abs(z_s)) * z_s / abs(z_s)


def feasibility_parabola(r_s: float, x_s: float, v0: float = 1.0) -> ParabolaCoeffs:
    """Power-plane curve of maximum power transfer for a given source.

    Squaring out the circle tangency condition r_p + r_q = |centers| and
    clearing denominators yields (up to the positive factor v0^4)

        G = r_s^2, H = -2 r_s x_s, I = x_s^2,
        J = v0^2 x_s, K = v0^2 r_s, L = -v0^4 / 4

    whose discriminant H^2 - 4 G I is identically zero (a parabola).  Loads
    with f(p, q) < 0 are feasible for this (r_s, x_s).
    """
    _check_source(complex(r_s, x_s), v0)
    v2 = v0 * v0
    return ParabolaCoeffs(
        G=r_s * r_s,
        H=-2.0 * r_s * x_s,
        I=x_s * x_s,
        J=v2 * x_s,
        K=v2 * r_s,
        L=-v2 * v2 / 4.0,
    )


def parabola_locus(coeffs: ParabolaCoeffs, n_points: int = 720) -> np.ndarray:
    """Sample the curve f(p, q) = 0 as rays from the origin.

    Along the ray (p, q) = rho (cos t, sin t) the curve is quadratic in rho;
    the smallest positive root per angle (:func:`_ray_distance`) traces the
    near branch.  Returns an array of rows (p, q, rho); angles with no
    positive root are omitted.
    """
    angles = np.linspace(0.0, 2.0 * np.pi, n_points, endpoint=False)
    rho = _ray_distance(coeffs, angles)
    keep = np.isfinite(rho)
    rho, t = rho[keep], angles[keep]
    return np.column_stack([rho * np.cos(t), rho * np.sin(t), rho])


def norm_feasible(s_l: complex, z_s: complex, v0: float = 1.0) -> bool:
    """Sufficient solvability condition v0^2 >= 4 ||s_l|| ||z_s||."""
    return v0**2 >= 4.0 * abs(s_l) * abs(z_s)


def _ray_distance(coeffs: ParabolaCoeffs, angles: np.ndarray) -> np.ndarray:
    """Smallest positive rho with f(rho cos t, rho sin t) = 0, NaN if none.

    The quadratic coefficient a2 = (r_s sin t - x_s cos t)^2 vanishes on the
    curve's axis (where the vertex lives), so the roots are evaluated in the
    cancellation-free q-form rather than the textbook formula.
    """
    ct, st = np.cos(angles), np.sin(angles)
    a2 = coeffs.G * st * st + coeffs.H * ct * st + coeffs.I * ct * ct
    a1 = coeffs.J * st + coeffs.K * ct
    a0 = coeffs.L  # < 0
    with np.errstate(invalid="ignore", divide="ignore"):
        disc = a1 * a1 - 4.0 * a2 * a0  # >= a1^2 since a2 >= 0, a0 < 0
        qf = -0.5 * (a1 + np.copysign(np.sqrt(disc), a1))
        r1 = qf / a2
        r2 = a0 / qf
        rho = np.full(angles.shape, np.nan)
        for cand in (r1, r2):
            good = (cand > 0) & np.isfinite(cand)
            rho = np.where(good & ~(rho <= cand), cand, rho)
    return rho


def parabola_vertex_distance(coeffs: ParabolaCoeffs, n_angles: int = 2048) -> float:
    """Distance from the origin to the curve (the vertex, for this family).

    Coarse scan over ray angles followed by a bounded 1-D refinement.
    """
    from scipy.optimize import minimize_scalar

    angles = np.linspace(0.0, 2.0 * np.pi, n_angles, endpoint=False)
    rho = _ray_distance(coeffs, angles)
    if np.all(np.isnan(rho)):
        raise ValueError("curve has no point at positive radius")
    k = int(np.nanargmin(rho))
    span = 2.0 * np.pi / n_angles

    def objective(t: float) -> float:
        r = _ray_distance(coeffs, np.array([t]))[0]
        return r if np.isfinite(r) else np.inf

    res = minimize_scalar(
        objective,
        bounds=(angles[k] - span, angles[k] + span),
        method="bounded",
        options={"xatol": 1e-12},
    )
    return float(min(res.fun, np.nanmin(rho)))


def _fpi_grid(
    sys: TwoBusSystem, v_start: np.ndarray, tol: float, max_iter: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Scalar fixed-point map v <- v0 - z_s s* / v* from every start at once:
    one :func:`tpflow.fpi.fixed_point` run of the identity map with shared
    ``a = -z_s s*`` and ``c = v0``, from a 1 x N start, one per column."""
    run = fixed_point(
        lambda u: u, np.array([[-sys.z_s * np.conj(sys.s_l)]]),
        np.array([[complex(sys.v0)]]),
        np.asarray(v_start, dtype=complex).reshape(1, -1), tol, max_iter,
    )
    iters = run.first_converged.reshape(v_start.shape)
    return run.v.reshape(v_start.shape), iters, iters > 0


def _nr_grid(
    sys: TwoBusSystem, v_start: np.ndarray, tol: float, max_iter: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized rectangular Newton on the power mismatch.

    Unknowns (e, f) with v = e + jf; mismatch m = s - v conj((v0 - v)/z_s).
    The delivered power g(v) = (v conj(v0) - |v|^2)/conj(z_s) has analytic
    partials dg/de = (conj(v0) - 2e)/conj(z_s), dg/df = (j conj(v0) - 2f)/
    conj(z_s); each cell solves its own 2x2 real system.
    """
    zc = np.conj(sys.z_s)
    v0c = np.conj(complex(sys.v0))
    e = v_start.real.astype(float).copy()
    f = v_start.imag.astype(float).copy()
    iters = np.zeros(e.shape, dtype=np.int32)
    done = np.zeros(e.shape, dtype=bool)
    for k in range(max_iter + 1):
        v = e + 1j * f
        m = sys.s_l - (v * v0c - (e * e + f * f)) / zc
        conv = ~done & (np.abs(m) < tol) & np.isfinite(m.real) & np.isfinite(m.imag)
        iters[conv] = k
        done |= conv
        if done.all() or k == max_iter:
            break
        ge = (v0c - 2.0 * e) / zc
        gf = (1j * v0c - 2.0 * f) / zc
        det = ge.real * gf.imag - gf.real * ge.imag
        ok = np.abs(det) > 1e-300
        det_safe = np.where(ok, det, 1.0)
        de = (m.real * gf.imag - gf.real * m.imag) / det_safe
        df = (ge.real * m.imag - m.real * ge.imag) / det_safe
        step = np.where(done | ~ok, 0.0, 1.0)
        e = e + step * de
        f = f + step * df
    return e + 1j * f, iters, done


def basin_scan(
    sys: TwoBusSystem,
    method: str = "fpi",
    re_range: tuple[float, float] = (-2.0, 2.0),
    im_range: tuple[float, float] = (-2.0, 2.0),
    resolution: int = 200,
    opts: SolveOptions = SolveOptions(),
) -> BasinMap:
    """Classify every grid start by the solution it converges to.

    Each converged final value is matched against the two closed-form roots
    within ``_MATCH_TOLERANCE``; anything else (including iteration-cap hits)
    counts as diverged.  ``resolution`` points per axis, at least 1.
    """
    if resolution < 1:
        raise ValueError("resolution must be >= 1")
    roots = closed_form_solutions(sys)
    if len(roots) != 2:
        raise ValueError("basin scan requires a system with two solutions")
    v_high, v_low = roots

    re_grid = np.linspace(*re_range, resolution)
    im_grid = np.linspace(*im_range, resolution)
    re, im = np.meshgrid(re_grid, im_grid, indexing="ij")
    starts = re + 1j * im

    if method == "fpi":
        v, iters, done = _fpi_grid(sys, starts, opts.tolerance, opts.max_iterations)
    elif method == "nr":
        v, iters, done = _nr_grid(sys, starts, opts.tolerance, opts.max_iterations)
    else:
        raise ValueError(f"unknown basin method {method!r}")

    classes = np.full(v.shape, CLASS_DIVERGED, dtype=np.int8)
    with np.errstate(invalid="ignore"):
        classes[done & (np.abs(v - v_high) < _MATCH_TOLERANCE)] = CLASS_HIGH
        classes[done & (np.abs(v - v_low) < _MATCH_TOLERANCE)] = CLASS_LOW
    return BasinMap(
        re_grid=re_grid,
        im_grid=im_grid,
        classes=classes,
        iterations=iters,
        method=method,
    )
