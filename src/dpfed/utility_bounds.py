"""Closed-form expected l1 perturbation of released parameters.

``l1_bound(mechanism, m, T, mode)`` is ``m * T * E|X|`` for a loss of length m
perturbed coordinatewise over T rounds, with ``E|X|`` from
:func:`dpfed.mechanisms.expected_abs_noise`.  Its modes, ``BOUND_MODES``, are
``"numeric"`` (the default ground truth) and ``"as_published"``, which for
the staircase is a literal textbook expression that mixes Delta^2 and Delta
terms (kept inspectable, never asserted equal to the numeric mode); the other
kinds have one form, which both modes give.
"""

from __future__ import annotations

import math

from .accountant import optimal_staircase_nu
from .mechanisms import MechanismKind, MechanismParams, expected_abs_noise

BOUND_MODES = ("numeric", "as_published")


def l1_bound(mechanism: MechanismParams, loss_length_m: int, rounds_T: int, mode: str = "numeric") -> float:
    """Expected l1 perturbation ``m * T * E|X|``.

    Under ``"as_published"`` a staircase mechanism gives the literal expression
    ``(mT / (1 - e^-lam)) * (nu^2 D^2 + e^-lam D^2 - e^-lam nu^2 D^2 + D e^-lam)``.
    """
    if not (isinstance(loss_length_m, int) and loss_length_m > 0):
        raise ValueError(f"loss_length_m must be a positive integer, got {loss_length_m}")
    if not (isinstance(rounds_T, int) and rounds_T > 0):
        raise ValueError(f"rounds_T must be a positive integer, got {rounds_T}")
    if mode not in BOUND_MODES:
        raise ValueError(f"mode must be one of {BOUND_MODES}, got {mode!r}")
    m, t = loss_length_m, rounds_T
    if mode == "numeric" or mechanism.kind is not MechanismKind.STAIRCASE:
        return m * t * expected_abs_noise(mechanism)
    lam, nu, d = mechanism.scale, mechanism.nu, mechanism.sensitivity
    e = math.exp(-lam)
    return m * t / (1.0 - e) * (nu**2 * d**2 + e * d**2 - e * nu**2 * d**2 + d * e)


def optimal_nu(lam: float) -> tuple[float, float]:
    """Amplitude-minimizing band fraction and the per-Delta minimum amplitude
    ``e^{lam/2} / (e^lam - 1)``."""
    nu = optimal_staircase_nu(lam)
    # e^{lam/2} / (e^lam - 1) == 1 / (2 sinh(lam/2)), stable for small lam
    return nu, 1.0 / (2.0 * math.sinh(lam / 2.0))
