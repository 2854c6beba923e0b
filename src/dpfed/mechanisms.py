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
``D_alpha(P || P(. - Delta))``, at one order or over a whole array of orders
in one numpy expression.  The staircase divergence is computed exactly by
band summation in log space; no closed-form shortcut is trusted.

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
    the one-row case of :meth:`NoiseTable.sample`."""
    return NoiseTable.of([params]).sample(stream.rng, (1, size))[0]


_KINDS = tuple(MechanismKind)


@dataclass(frozen=True, eq=False)
class NoiseTable:
    """k noise mechanisms as the constants their samplers read, row j for
    the j-th parameter set and each a ``(k, 1)`` column, built once
    (:meth:`of`) and drawn from by :meth:`sample`.

    ``kind`` holds each row's :class:`MechanismKind` as its position in the
    enum, ``scale`` and ``delta`` each row's scale and sensitivity.  A
    Staircase row also holds ``1 - e^{-lam}`` (``band_p``), the inner-piece
    probability ``nu / (nu + e^{-lam} (1 - nu))`` (``inner_p``) and ``nu``,
    computed per set in Python floats, so a row's constants are those of its
    set alone; other rows hold nan there.  ``groups`` lists each kind with
    its rows, in the order the kind first appears.
    """

    kind: np.ndarray
    scale: np.ndarray
    delta: np.ndarray
    band_p: np.ndarray
    inner_p: np.ndarray
    nu: np.ndarray
    groups: tuple = field(init=False, repr=False)

    def __post_init__(self) -> None:
        codes = dict.fromkeys(self.kind.tolist())
        object.__setattr__(self, "groups", tuple((_KINDS[code], (self.kind == code).nonzero()[0]) for code in codes))

    @classmethod
    def of(cls, params) -> "NoiseTable":
        def column(values) -> np.ndarray:
            return np.array(values, dtype=float).reshape(-1, 1)

        stair = [p.kind is MechanismKind.STAIRCASE for p in params]
        e = [math.exp(-p.scale) if s else math.nan for p, s in zip(params, stair)]
        return cls(
            kind=np.array([_KINDS.index(p.kind) for p in params], dtype=int),
            scale=column([p.scale for p in params]),
            delta=column([p.sensitivity for p in params]),
            # band index: P(rho = i) = (1 - e^-lam) e^{-i lam}
            band_p=column([1.0 - e_j for e_j in e]),
            inner_p=column([p.nu / (p.nu + e_j * (1.0 - p.nu)) if s else math.nan
                            for p, e_j, s in zip(params, e, stair)]),
            nu=column([p.nu if s else math.nan for p, s in zip(params, stair)]),
        )

    def __len__(self) -> int:
        return len(self.kind)

    def take(self, rows) -> "NoiseTable":
        """The table of ``rows``, in that order."""
        return NoiseTable(
            self.kind[rows], self.scale[rows], self.delta[rows], self.band_p[rows], self.inner_p[rows], self.nu[rows]
        )

    def sample(self, rng: np.random.Generator, shape) -> np.ndarray:
        """Draws of ``shape`` ``(..., k, d)`` with row j from row j's
        mechanism.  The rows of one kind are drawn together, each kind in turn
        (``groups``), so a table of one kind is one draw of each call its
        sampler makes."""
        if shape[-2] != len(self):
            raise ValueError(f"a noise block needs one parameter set per row: got {len(self)} for shape {shape}")
        block = np.empty(shape)
        for kind, rows in self.groups:
            block[..., rows, :] = _sample_one_kind(kind, self.take(rows), rng, (*shape[:-2], len(rows), shape[-1]))
        return block


def _sample_one_kind(kind: MechanismKind, table: NoiseTable, rng: np.random.Generator, shape) -> np.ndarray:
    # Each draw call and the Staircase arithmetic run once over the whole
    # block, against the table's (k, 1) columns.  Gaussian and Laplace draw
    # unit noise and scale it by the column.
    if kind is MechanismKind.GAUSSIAN:
        return rng.standard_normal(shape) * table.scale
    if kind is MechanismKind.LAPLACE:
        return rng.laplace(0.0, 1.0, shape) * table.scale
    nu = table.nu
    rho = rng.geometric(table.band_p, shape) - 1.0
    # One call draws the piece, the offset within it and the sign, in that
    # order: the same doubles as three calls of the block's size each.
    piece, u, coin = rng.random((3, *shape))
    inner = piece < table.inner_p
    # In bands of width delta, the inner piece is [rho, rho + nu), the outer
    # [rho + nu, rho + 1): the draw is (start + u * width) * delta, in place.
    u *= np.where(inner, nu, 1.0 - nu)
    u += np.where(inner, rho, rho + nu)
    u *= table.delta
    return np.copysign(u, coin - 0.5, out=u)


def rdp(params: MechanismParams, alpha):
    """Renyi divergence between the noise density and its copy shifted by
    the sensitivity, at one order ``alpha`` (a ``float`` back) or at each of
    an array of orders (an array of the same shape back).

    Each kind is one array expression over the orders.  Gaussian:
    ``alpha * Delta^2 / (2 sigma^2)``.  Laplace: the exact closed form.
    Staircase: exact piecewise band summation -- the left tail contributes
    ``e^{(alpha-1) lam} / 2``, the right tail ``e^{-alpha lam} / 2`` and the
    segment ``[0, Delta]`` a finite sum over constant pieces of
    ``P^alpha Q^{1-alpha}``, as one log-sum-exp over a ``(pieces, orders)`` array.
    """
    a = np.asarray(alpha, dtype=float)
    bad = ~(np.isfinite(a) & (a > 1.0))
    if bad.any():
        raise ValueError(f"alpha must be a finite real > 1, got {a[bad].flat[0]}")
    delta = params.sensitivity
    if params.kind is MechanismKind.GAUSSIAN:
        out = a * delta**2 / (2.0 * params.scale**2)
    elif params.kind is MechanismKind.LAPLACE:
        t = delta / params.scale
        out = np.logaddexp(
            np.log(a / (2.0 * a - 1.0)) + t * (a - 1.0), np.log((a - 1.0) / (2.0 * a - 1.0)) - t * a
        ) / (a - 1.0)
    else:
        lam, nu = params.scale, params.nu
        log_y = _staircase_log_y(delta, lam, nu)
        # A row (log w, log p, log q) adds w p^alpha q^(1-alpha): the two
        # tails, then each piece of [0, Delta] of positive width.
        rows = [(math.log(0.5), 0.0, -lam), (math.log(0.5), -lam, 0.0)]
        cuts = [0.0, min(nu, 1.0 - nu) * delta, max(nu, 1.0 - nu) * delta, delta]
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            if hi > lo:
                mid = 0.5 * (lo + hi)
                log_p = log_y if mid < nu * delta else log_y - lam  # P on (0, Delta)
                log_q = log_y if delta - mid < nu * delta else log_y - lam  # P(. - Delta), by symmetry
                rows.append((math.log(hi - lo), log_p, log_q))
        log_w, log_p, log_q = (np.reshape(col, (-1,) + (1,) * a.ndim) for col in zip(*rows))
        terms = log_w + a * log_p + (1.0 - a) * log_q
        top = terms.max(axis=0)
        with np.errstate(invalid="ignore"):
            out = np.where(np.isinf(top), top, top + np.log(np.exp(terms - top).sum(axis=0))) / (a - 1.0)
    return out if a.ndim else float(out)


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
