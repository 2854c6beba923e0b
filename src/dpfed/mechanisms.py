"""Noise mechanisms: densities, samplers, exact Renyi divergence, noise amplitude.

Three additive noise mechanisms are supported, each parameterized by the
sensitivity Delta of the protected quantity and a single scale knob:

* Gaussian   -- scale sigma, the noise standard deviation.
* Laplace    -- scale b, the Laplace scale parameter.
* Staircase  -- scale lam, a per-application pure-DP level, plus a band-shape
  parameter nu in (0, 1).  The density is a geometric mixture of uniform
  bands of width Delta: on ``|x| in [rho*Delta, (rho+nu)*Delta)`` it equals
  ``exp(-rho*lam) * y`` and on the remainder of the band
  ``exp(-(rho+1)*lam) * y``, with normalization
  ``y = (1 - exp(-lam)) / (2*Delta*(nu + exp(-lam)*(1 - nu)))``.

All Renyi divergences are computed for the worst-case shift Delta, i.e.
``D_alpha(P || P(. - Delta))``.  The staircase divergence is computed exactly
by band summation in log space; no closed-form shortcut is trusted.

``*_as_published`` variants reproduce literal textbook/table expressions that
are known to disagree with the normalized density (a fixed ``1 - e^-1``
numerator instead of ``1 - e^-lam``, a missing square on Delta, and a raw
moment reported in place of a divergence).  They exist for side-by-side
reporting only and must never feed the accountant.
"""

from __future__ import annotations

import enum
import hashlib
import math
from dataclasses import dataclass, field

import numpy as np


def _logsumexp(terms) -> float:
    m = max(terms)
    if math.isinf(m):
        return m
    return m + math.log(sum(math.exp(t - m) for t in terms))


class MechanismKind(enum.Enum):
    """Closed set of supported noise mechanisms."""

    GAUSSIAN = "gaussian"
    LAPLACE = "laplace"
    STAIRCASE = "staircase"


@dataclass(frozen=True)
class MechanismParams:
    """One noise mechanism instance.

    ``scale`` is sigma for Gaussian, b for Laplace and lam (the per-application
    pure-DP level) for Staircase.  ``nu`` is required for Staircase and ignored
    otherwise.
    """

    kind: MechanismKind
    sensitivity: float
    scale: float
    nu: float | None = None

    def __post_init__(self) -> None:
        if not (math.isfinite(self.sensitivity) and self.sensitivity > 0):
            raise ValueError(f"sensitivity must be positive, got {self.sensitivity}")
        if not (math.isfinite(self.scale) and self.scale > 0):
            raise ValueError(f"scale must be positive, got {self.scale}")
        if self.kind is MechanismKind.STAIRCASE:
            if self.nu is None or not (0.0 < self.nu < 1.0):
                raise ValueError(f"staircase nu must lie in (0, 1), got {self.nu}")
        elif self.nu is not None:
            object.__setattr__(self, "nu", None)


def _purpose_digest(purpose: str) -> int:
    return int.from_bytes(hashlib.blake2s(purpose.encode("utf-8"), digest_size=8).digest(), "big")


def _seed_words(*values: int) -> np.ndarray:
    """The 32-bit words of each non-negative int, least significant first,
    with 0 as one word: the ``uint32`` array ``SeedSequence`` makes of a
    tuple of ints."""
    words = []
    for value in values:
        words.append(value & 0xFFFF_FFFF)
        value >>= 32
        while value:
            words.append(value & 0xFFFF_FFFF)
            value >>= 32
    return np.array(words, dtype=np.uint32)


@dataclass
class NoiseStream:
    """Deterministic pseudo-random sub-stream handle.

    The generator is derived from (master seed, round index, client index,
    purpose tag); identical derivation inputs yield identical sample sequences
    within one build.  Each concurrent caller must own its own stream.

    The ``SeedSequence`` entropy is the 32-bit words of ``(master seed mod
    2**64, round, client, blake2s digest of the purpose)``, handed over as
    one ``uint32`` array: the words numpy would split that tuple of ints
    into, so the draws are those of the tuple, at about half the set-up
    cost.
    """

    master_seed: int
    round_index: int = 0
    client_index: int = 0
    purpose: str = "noise"
    _rng: np.random.Generator | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.round_index < 0 or self.client_index < 0:
            raise ValueError("round and client indices must be non-negative")

    @property
    def rng(self) -> np.random.Generator:
        if self._rng is None:
            words = _seed_words(
                self.master_seed & 0xFFFF_FFFF_FFFF_FFFF,
                self.round_index,
                self.client_index,
                _purpose_digest(self.purpose),
            )
            self._rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(words)))
        return self._rng


def _staircase_log_y(delta: float, lam: float, nu: float) -> float:
    # log of the corrected normalization (1-e^-lam numerator).
    return math.log1p(-math.exp(-lam)) - math.log(2.0 * delta * (nu + math.exp(-lam) * (1.0 - nu)))


def density(params: MechanismParams, x) -> float | np.ndarray:
    """Probability density of the zero-centered noise at ``x``.

    Accepts scalars or arrays; non-finite inputs are a domain error.
    """
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("density input must be finite")
    if params.kind is MechanismKind.GAUSSIAN:
        s = params.scale
        out = np.exp(-(arr**2) / (2.0 * s * s)) / (s * math.sqrt(2.0 * math.pi))
    elif params.kind is MechanismKind.LAPLACE:
        b = params.scale
        out = np.exp(-np.abs(arr) / b) / (2.0 * b)
    else:
        out = _staircase_density(arr, params.sensitivity, params.scale, params.nu)
    return out if arr.ndim else float(out)


def _staircase_density(arr: np.ndarray, delta: float, lam: float, nu: float, log_y: float | None = None) -> np.ndarray:
    if log_y is None:
        log_y = _staircase_log_y(delta, lam, nu)
    ax = np.abs(arr)
    rho = np.floor(ax / delta)
    inner = (ax - rho * delta) < nu * delta
    exponent = np.where(inner, -rho * lam, -(rho + 1.0) * lam)
    return np.exp(exponent + log_y)


def density_as_published(params: MechanismParams, x) -> float | np.ndarray:
    """Literal published staircase density (``1 - e^-1`` numerator).

    Comparison reporting only: the result does not integrate to 1 unless
    lam == 1.  Gaussian and Laplace coincide with :func:`density`.
    """
    if params.kind is not MechanismKind.STAIRCASE:
        return density(params, x)
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("density input must be finite")
    delta, lam, nu = params.sensitivity, params.scale, params.nu
    log_y_pub = math.log1p(-math.exp(-1.0)) - math.log(2.0 * delta * (nu + math.exp(-lam) * (1.0 - nu)))
    out = _staircase_density(arr, delta, lam, nu, log_y=log_y_pub)
    return out if arr.ndim else float(out)


def sample_noise_array(params: MechanismParams, stream: NoiseStream, size: int) -> np.ndarray:
    """Vectorized sampler; ``size`` i.i.d. draws from the mechanism's density:
    the one-row case of :func:`sample_noise_block`."""
    return sample_noise_block([params], stream, (1, size))[0]


def sample_noise_block(params, stream: NoiseStream, shape) -> np.ndarray:
    """Draws of ``shape`` ``(..., k, d)`` with row j from ``params[j]``.  The
    rows of one kind are drawn together, each kind in turn in the order it
    first appears in ``params``, so a block of one kind is one draw of each
    call its sampler makes."""
    if shape[-2] != len(params):
        raise ValueError(f"a noise block needs one parameter set per row: got {len(params)} for shape {shape}")
    rows_of: dict[MechanismKind, list[int]] = {}
    for j, p in enumerate(params):
        rows_of.setdefault(p.kind, []).append(j)
    block = np.empty(shape)
    for rows in rows_of.values():
        sets = [params[j] for j in rows]
        block[..., rows, :] = _sample_one_kind(sets, stream.rng, (*shape[:-2], len(rows), shape[-1]))
    return block


def _sample_one_kind(params, rng: np.random.Generator, shape) -> np.ndarray:
    # Each field of the k sets becomes a (k, 1) column, so each draw call and
    # the Staircase arithmetic run once over the whole block.  Gaussian and
    # Laplace draw unit noise and scale it by the column.
    def column(values) -> np.ndarray:
        return np.array(values, dtype=float)[:, None]

    kind = params[0].kind
    if kind is MechanismKind.GAUSSIAN:
        return rng.standard_normal(shape) * column([p.scale for p in params])
    if kind is MechanismKind.LAPLACE:
        return rng.laplace(0.0, 1.0, shape) * column([p.scale for p in params])
    # Built per set in Python floats, so each row's constants are those of one set alone.
    e = [math.exp(-p.scale) for p in params]
    nu = column([p.nu for p in params])
    # band index: P(rho = i) = (1 - e^-lam) e^{-i lam}
    rho = rng.geometric(column([1.0 - e_j for e_j in e]), shape) - 1.0
    # One call draws the piece, the offset within it and the sign, in that
    # order: the same doubles as three calls of the block's size each.
    piece, u, coin = rng.random((3, *shape))
    inner = piece < column([p.nu / (p.nu + e_j * (1.0 - p.nu)) for p, e_j in zip(params, e)])
    # In bands of width delta, the inner piece is [rho, rho + nu), the outer
    # [rho + nu, rho + 1): the draw is (start + u * width) * delta, in place.
    u *= np.where(inner, nu, 1.0 - nu)
    u += np.where(inner, rho, rho + nu)
    u *= column([p.sensitivity for p in params])
    return np.copysign(u, coin - 0.5, out=u)


def rdp(params: MechanismParams, alpha: float) -> float:
    """Renyi divergence of order ``alpha`` between the noise density and its
    copy shifted by the sensitivity.

    Gaussian: ``alpha * Delta^2 / (2 sigma^2)``.  Laplace: the exact
    closed form.  Staircase: exact piecewise band summation -- the left tail
    contributes ``e^{(alpha-1) lam} / 2``, the right tail ``e^{-alpha lam} / 2``
    and the segment ``[0, Delta]`` is a finite sum over constant pieces of
    ``P^alpha Q^{1-alpha}``, all assembled in log space.
    """
    if not (math.isfinite(alpha) and alpha > 1.0):
        raise ValueError(f"alpha must be a finite real > 1, got {alpha}")
    delta = params.sensitivity
    if params.kind is MechanismKind.GAUSSIAN:
        return alpha * delta**2 / (2.0 * params.scale**2)
    if params.kind is MechanismKind.LAPLACE:
        t = delta / params.scale
        log_terms = [
            math.log(alpha / (2.0 * alpha - 1.0)) + t * (alpha - 1.0),
            math.log((alpha - 1.0) / (2.0 * alpha - 1.0)) - t * alpha,
        ]
        return _logsumexp(log_terms) / (alpha - 1.0)
    return _staircase_rdp_exact(delta, params.scale, params.nu, alpha)


def _staircase_rdp_exact(delta: float, lam: float, nu: float, alpha: float) -> float:
    log_y = _staircase_log_y(delta, lam, nu)
    log_terms = [math.log(0.5) + (alpha - 1.0) * lam, math.log(0.5) - alpha * lam]

    def log_p(x: float) -> float:  # density of P on (0, delta)
        return log_y if x < nu * delta else log_y - lam

    def log_q(x: float) -> float:  # density of P(. - delta), via symmetry
        return log_y if delta - x < nu * delta else log_y - lam

    cuts = [0.0, min(nu, 1.0 - nu) * delta, max(nu, 1.0 - nu) * delta, delta]
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        if hi <= lo:
            continue
        mid = 0.5 * (lo + hi)
        log_terms.append(math.log(hi - lo) + alpha * log_p(mid) + (1.0 - alpha) * log_q(mid))
    return _logsumexp(log_terms) / (alpha - 1.0)


def rdp_as_published(params: MechanismParams, alpha: float) -> float:
    """Literal published Renyi-divergence expressions; reporting only.

    Gaussian omits the square on Delta; Staircase returns the raw moment
    (no ``log(.)/(alpha-1)``) with the fixed ``1 - e^-1`` factor and the
    published sign-indicator convention (0 for nu < 1/2, 1 otherwise).
    Laplace's published form is consistent and matches :func:`rdp`.
    """
    if not (math.isfinite(alpha) and alpha > 1.0):
        raise ValueError(f"alpha must be a finite real > 1, got {alpha}")
    delta = params.sensitivity
    if params.kind is MechanismKind.GAUSSIAN:
        return alpha * delta / (2.0 * params.scale**2)
    if params.kind is MechanismKind.LAPLACE:
        return rdp(params, alpha)
    lam, nu = params.scale, params.nu
    sgn = 0.0 if nu < 0.5 else 1.0
    bracket = (math.exp((alpha - 1.0) * lam) + math.exp(-alpha * lam)) * (1.0 - nu)
    bracket += abs(2.0 * nu - 1.0) * math.exp(-sgn * lam)
    factor = (1.0 - math.exp(-1.0)) / (2.0 * (nu + math.exp(-lam) * (1.0 - nu)))
    return 0.5 * math.exp((alpha - 1.0) * lam) + 0.5 * math.exp(-alpha * lam) + bracket * factor


def pure_dp_epsilon(params: MechanismParams) -> float:
    """Pure-DP level of one coordinate of one application; ``math.inf`` for
    Gaussian.

    A d-dimensional release with l2 sensitivity c has a larger level (up to
    sqrt(d) c / b for Laplace and d lam for Staircase).
    """
    if params.kind is MechanismKind.GAUSSIAN:
        return math.inf
    if params.kind is MechanismKind.LAPLACE:
        return params.sensitivity / params.scale
    return params.scale


def expected_abs_noise(params: MechanismParams) -> float:
    """Expected noise amplitude E|X|.

    Gaussian ``sigma * sqrt(2/pi)``; Laplace ``b``; Staircase by exact band
    summation (geometric series over the band masses).
    """
    if params.kind is MechanismKind.GAUSSIAN:
        return params.scale * math.sqrt(2.0 / math.pi)
    if params.kind is MechanismKind.LAPLACE:
        return params.scale
    delta, lam, nu = params.sensitivity, params.scale, params.nu
    e = math.exp(-lam)
    y = math.exp(_staircase_log_y(delta, lam, nu))
    s0 = 1.0 / (1.0 - e)
    s1 = e / (1.0 - e) ** 2
    inner = 2.0 * nu * s1 + nu**2 * s0
    outer = e * (2.0 * (1.0 - nu) * s1 + (1.0 - nu**2) * s0)
    return y * delta**2 * (inner + outer)
