"""Offline adversary policies and their block representation.

An offline policy commits, before play begins, to one decision per stage,
written as text over {F, T}: F lies (predicts the opposite of the true
outcome), T tells the truth (matches it).  Since the expected system loss
depends only on the decisions relative to the outcomes, not on the outcome
sequence itself, this relative encoding loses nothing.  Every policy also
has an equivalent run-length encoding into alternating lie/truth blocks
(n1, m1, ..., nk, mk), which the exact evaluators consume directly.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import ModelParams, _is_count, _positive_int

__all__ = [
    "OfflinePolicy",
    "BlockForm",
    "false_policy",
    "true_policy",
    "ratio_policy",
    "random_policy",
    "block_form",
    "from_blocks",
]


@dataclass(frozen=True)
class OfflinePolicy:
    """A committed decision per stage: ``text`` has one character per stage,
    F to lie and T to tell the truth."""

    text: str

    def __post_init__(self) -> None:
        if not (isinstance(self.text, str) and self.text and set(self.text) <= {"F", "T"}):
            raise ValueError(f"policy text must be a nonempty string of 'F' and 'T': {self.text!r}")

    @property
    def horizon(self) -> int:
        return len(self.text)


@dataclass(frozen=True)
class BlockForm:
    """Alternating (lie_run, truth_run) lengths; only the first lie run and
    the last truth run may be zero (runs are maximal)."""

    blocks: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if len(self.blocks) < 1:
            raise ValueError("block form needs at least one (n, m) pair")
        norm = []
        last = len(self.blocks) - 1
        for i, (n, m) in enumerate(self.blocks):
            if not (_is_count(n) and _is_count(m)):
                raise ValueError(f"block lengths must be nonnegative integers, got {(n, m)}")
            if n == 0 and i != 0:
                raise ValueError("only the first lie block may be empty")
            if m == 0 and i != last:
                raise ValueError("only the final truth block may be empty")
            norm.append((int(n), int(m)))
        if sum(n + m for n, m in norm) < 1:
            raise ValueError("block form must cover at least one stage")
        object.__setattr__(self, "blocks", tuple(norm))

    @property
    def horizon(self) -> int:
        return sum(n + m for n, m in self.blocks)

    def __iter__(self):
        return iter(self.blocks)


def false_policy(horizon: int) -> OfflinePolicy:
    """Lie at every stage."""
    n = _positive_int("horizon", horizon)
    return OfflinePolicy("F" * n)


def true_policy(horizon: int) -> OfflinePolicy:
    """Tell the truth at every stage."""
    n = _positive_int("horizon", horizon)
    return OfflinePolicy("T" * n)


def _ratio_pair(mu: float, max_denominator: int, horizon: int) -> tuple[int, int, int]:
    """The ratio policy's (b lies, a truths) pair and how many of them open
    ``horizon``: a/b approximates mu/(1-mu) with denominator at most
    ``max_denominator``, each count at least 1, and pairs are stacked while
    they fit in the first half of the horizon."""
    frac = Fraction(mu / (1.0 - mu)).limit_denominator(max_denominator)
    b, a = max(int(frac.denominator), 1), max(int(frac.numerator), 1)
    return b, a, (horizon // 2) // (a + b)


def ratio_policy(params: ModelParams, max_denominator: int = 20) -> OfflinePolicy:
    """Alternate short lie/truth blocks, then lie for the rest of the horizon.

    The prefix repeats (b lies, a truths) with a/b a bounded-denominator
    rational approximation of mu/(1-mu); pairs are stacked while the prefix
    still fits in the first half of the horizon, and the remainder is a
    single terminal lie block (so at least half the stages are lies).  The
    short prefix blocks maximize the number of lie/truth switches, which is
    what generates the credibility-rebuild bonus this policy exists for.

    If even one (b, a) pair does not fit in half the horizon, that leaves
    the all-lies policy.
    """
    if params.horizon < 2:
        raise ValueError("ratio policy needs horizon >= 2")
    b, a, pairs = _ratio_pair(params.mu, max_denominator, params.horizon)
    tail = params.horizon - pairs * (a + b)
    blocks = BlockForm(tuple([(b, a)] * pairs + [(tail, 0)]))
    return from_blocks(blocks)


def random_policy(horizon: int, q: float, seed: int) -> OfflinePolicy:
    """I.i.d. decisions: each stage is T (truth) with probability q and F
    (lie) otherwise, deterministically from ``seed``.

    With q = 1/2 this reproduces, in distribution, the optimal strategy of
    an adversary with no information about the outcome sequence (a uniform
    coin over raw predictions); for other q the two framings differ because
    decisions here are encoded relative to the outcome.
    """
    n = _positive_int("horizon", horizon)
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must be in [0, 1], got {q}")
    rng = np.random.default_rng(seed)
    return OfflinePolicy("".join("T" if t else "F" for t in rng.random(n) < q))


def block_form(policy: OfflinePolicy) -> BlockForm:
    """Run-length encode a policy into maximal alternating blocks."""
    runs = re.findall("(F*)(T*)", policy.text)
    return BlockForm(tuple((len(lies), len(truths)) for lies, truths in runs if lies or truths))


def from_blocks(blocks: BlockForm) -> OfflinePolicy:
    """Expand a block form back into per-stage decisions (inverse of
    :func:`block_form`)."""
    return OfflinePolicy("".join("F" * n + "T" * m for n, m in blocks))
