"""Weight dynamics of a multiplicative-weights forecaster with a malicious expert.

The forecaster combines expert predictions by a normalized weighted average
and multiplies the weight of every wrong expert by a penalty ``epsilon`` in
(0, 1).  In the two-expert analysis the adversary's relative weight always
lies on a one-parameter curve indexed by an integer offset (net number of
punished lies minus rewarded truths); representing states by that integer
instead of by floating-point weights is what keeps the evaluators and the
dynamic program exact.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "GuardError",
    "ModelParams",
    "ExpertState",
    "BinomialDist",
    "weight_update_g",
    "weight_update_g_inv",
    "weight_power",
    "system_prediction",
    "mw_step",
    "binomial",
]

# exp() saturation point; beyond this the weight is indistinguishable from 0/1
_MAX_EXP = 700.0


class GuardError(RuntimeError):
    """Input is valid but exceeds an enumeration or state-count budget."""


def _validate_loss(q: Callable[[float], float]) -> None:
    grid = np.linspace(0.0, 1.0, 33)
    vals = np.array([float(q(x)) for x in grid])
    if not np.all(np.isfinite(vals)):
        raise ValueError("loss function must be finite on [0, 1]")
    if vals[0] < -1e-12:
        raise ValueError("loss function must satisfy Q(0) >= 0")
    if np.any(np.diff(vals) < -1e-12):
        raise ValueError("loss function must be nondecreasing on [0, 1]")


def _check_epsilon(epsilon: float) -> None:
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")


def _is_count(x) -> bool:
    """A whole number >= 0 (int, NumPy integer or integral float), not inf or NaN."""
    return 0 <= x < math.inf and int(x) == x


def _counts_in(values: np.ndarray, low: int, high: int) -> bool:
    """Whether ``values`` (an ``np.asarray`` of the input) is 1-D and numeric
    and every entry a whole number in low..high: a scalar, text, inf and NaN
    are not (horizon lists)."""
    return values.ndim == 1 and values.dtype.kind in "biuf" and all(
        _is_count(x) and low <= x <= high for x in values.tolist())


def _positive_int(name: str, x) -> int:
    """``x`` as an int, if it is a whole number >= 1; a ValueError naming
    ``name`` otherwise, inf and NaN too (horizons, trial counts)."""
    if not (_is_count(x) and x >= 1):
        raise ValueError(f"{name} must be a positive integer, got {x}")
    return int(x)


@dataclass(frozen=True)
class ModelParams:
    """One two-expert problem instance.

    epsilon: multiplicative penalty applied to a wrong expert, in (0, 1).
    mu: per-stage accuracy of the honest expert, strictly inside (0, 1);
        the degenerate values are rejected because several expressions
        divide by mu * (1 - mu).
    horizon: number of prediction stages, >= 1.
    rho0: adversary's initial relative weight, in (0, 1).
    loss: None selects the absolute loss Q(y) = y; otherwise a nondecreasing
        map Q on [0, 1] applied to the prediction error, spot-checked on a
        grid at construction.
    """

    epsilon: float
    mu: float
    horizon: int
    rho0: float = 0.5
    loss: Callable[[float], float] | None = None

    def __post_init__(self) -> None:
        _check_epsilon(self.epsilon)
        if not 0.0 < self.mu < 1.0:
            raise ValueError(f"mu must be strictly inside (0, 1), got {self.mu}")
        object.__setattr__(self, "horizon", _positive_int("horizon", self.horizon))
        if not 0.0 < self.rho0 < 1.0:
            raise ValueError(f"rho0 must be in (0, 1), got {self.rho0}")
        if self.loss is not None:
            _validate_loss(self.loss)

    @property
    def is_absolute(self) -> bool:
        return self.loss is None

    def q(self, x: float) -> float:
        """Loss of a single prediction error ``x``."""
        return float(x) if self.loss is None else float(self.loss(x))

    def q_vec(self, x: np.ndarray) -> np.ndarray:
        """Loss applied elementwise; tolerates scalar-only custom losses."""
        if self.loss is None:
            return np.asarray(x, dtype=float)
        try:
            out = np.asarray(self.loss(x), dtype=float)
            if out.shape == np.shape(x):
                return out
        except (TypeError, ValueError):
            pass
        flat = np.asarray([float(self.loss(v)) for v in np.ravel(x)])
        return flat.reshape(np.shape(x))


def _check_rho(rho: float) -> None:
    if not 0.0 < rho <= 1.0:
        raise ValueError(f"relative weight must be in (0, 1], got {rho}")


def weight_update_g(rho: float, params: ModelParams) -> float:
    """Relative weight after the adversary is punished once.

    This is the transition taken when the adversary predicts wrongly while
    the honest expert is correct; the map is strictly increasing and
    satisfies g(rho) <= rho with fixed point 1.
    """
    _check_rho(rho)
    return 1.0 / (1.0 + (1.0 / rho - 1.0) / params.epsilon)


def weight_update_g_inv(rho: float, params: ModelParams) -> float:
    """Exact inverse of :func:`weight_update_g` (the rewarded step)."""
    _check_rho(rho)
    return 1.0 / (1.0 + (1.0 / rho - 1.0) * params.epsilon)


def weight_power(j, rho: float, params: ModelParams):
    """Relative weight at integer offset ``j`` from ``rho``, in closed form.

    Equals 1 / (1 + (1/rho - 1) * epsilon**(-j)); positive ``j`` composes the
    punishing map ``j`` times, negative ``j`` the rewarding inverse.  Never
    iterates the composition, and saturates toward the 0/1 fixed points
    instead of overflowing for huge ``|j|``.  Accepts a scalar (returns a
    float) or an ndarray of offsets (returns the matching shape).
    """
    _check_rho(rho)
    z = -math.log(params.epsilon) * np.asarray(j, dtype=float)
    with np.errstate(over="ignore"):  # inf for rho < 5.5e-5: w = 0, the exact limit
        w = 1.0 / (1.0 + (1.0 / rho - 1.0) * np.exp(np.minimum(z, _MAX_EXP)))
    return w if isinstance(j, np.ndarray) else float(w)


@dataclass(frozen=True)
class ExpertState:
    """Raw (unnormalized) expert weights at a stage.

    Weights stay strictly positive: a wrong prediction multiplies a weight
    by epsilon, it never zeroes it.
    """

    weights: np.ndarray

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1 or w.size < 2:
            raise ValueError("need a 1-D vector of at least two expert weights")
        if not np.all((w > 0.0) & (w < math.inf)):  # written so that NaN fails
            raise ValueError("expert weights must be finite and strictly positive")
        object.__setattr__(self, "weights", w)

    @property
    def n_experts(self) -> int:
        return int(self.weights.size)

    @property
    def normalized(self) -> np.ndarray:
        return self.weights / self.weights.sum()


def _check_predictions(preds, n_experts: int) -> np.ndarray:
    p = np.asarray(preds)
    if p.shape != (n_experts,):
        raise ValueError(f"expected {n_experts} predictions, got shape {p.shape}")
    if not np.all((p == 0) | (p == 1)):
        raise ValueError("predictions must be 0 or 1")
    return p.astype(float)


def system_prediction(state: ExpertState, predictions: Sequence[int]) -> float:
    """Weighted-average prediction: sum of normalized weights of the experts
    predicting 1."""
    p = _check_predictions(predictions, state.n_experts)
    return float(state.normalized @ p)


def mw_step(
    state: ExpertState,
    predictions: Sequence[int],
    outcome: int,
    params: ModelParams,
) -> ExpertState:
    """One multiplicative-weights update: every wrong expert's weight is
    multiplied by epsilon, correct experts keep theirs."""
    p = _check_predictions(predictions, state.n_experts)
    if outcome not in (0, 1):
        raise ValueError("outcome must be 0 or 1")
    wrong = p != outcome
    new_w = np.where(wrong, state.weights * params.epsilon, state.weights)
    return ExpertState(new_w)


@dataclass(frozen=True)
class BinomialDist:
    """Binomial pmf (see :func:`binomial`) and its tail probabilities."""

    trials: int
    pmf: np.ndarray

    @functools.cached_property
    def tails(self) -> np.ndarray:
        """P(Z > j) for j = 0..trials (the last entry is exactly 0), built on
        first use and kept: a walk charges many runs of one law."""
        suffix = np.cumsum(self.pmf[::-1])[::-1]  # suffix[j] = P(Z >= j)
        tails = np.append(suffix[1:], 0.0)
        tails.flags.writeable = False  # shared by every caller
        return tails


def binomial(trials: int, p: float) -> BinomialDist:
    """Binomial(trials, p) pmf via the multiplicative recurrence
    pmf(i+1) = pmf(i) * (n-i)/(i+1) * p/(1-p).

    The recurrence is anchored at the mode when the usual start value
    (1-p)**n would underflow, so very long horizons stay usable.  The
    rounding of either start value, ``exp(n log1p(-p))`` or the ``lgamma``
    anchor, scales the whole law (without the division |sum - 1| reaches
    7.4e-14 at n = 1000, p = 0.3 and 4.6e-12 at n = 8000), so the pmf is
    divided by its sum.  It is still not exact: the recurrence's own
    rounding bends its shape, by 4.3e-15 in L1 from the exact law of the
    same float p at n = 8000, p = 0.3.
    """
    if not _is_count(trials):
        raise ValueError(f"trials must be a nonnegative integer, got {trials}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"success probability must be in [0, 1], got {p}")
    n = int(trials)
    pmf = np.zeros(n + 1)
    if p == 1.0:
        pmf[n] = 1.0
        return BinomialDist(n, pmf)

    log_p0 = n * math.log1p(-p)
    if log_p0 > -_MAX_EXP:
        anchor = 0
        log_anchor = log_p0
    else:
        anchor = min(int((n + 1) * p), n)
        log_anchor = (
            math.lgamma(n + 1)
            - math.lgamma(anchor + 1)
            - math.lgamma(n - anchor + 1)
            + anchor * math.log(p)
            + (n - anchor) * math.log1p(-p)
        )
    pmf[anchor] = math.exp(log_anchor)
    r = p / (1.0 - p)
    i = np.arange(anchor, n)
    pmf[anchor + 1 :] = pmf[anchor] * np.cumprod((n - i) / (i + 1.0) * r)
    if anchor > 0:
        i = np.arange(anchor, 0, -1)
        pmf[anchor - 1 :: -1] = pmf[anchor] * np.cumprod(i / ((n - i + 1.0) * r))
    pmf /= pmf.sum()
    return BinomialDist(n, pmf)
