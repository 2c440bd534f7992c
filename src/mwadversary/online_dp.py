"""Optimal online adversaries by backward induction.

The two-expert solver works on the reduced integer-offset state space: after
k stages the adversary's relative weight can only sit at one of 2k+1 offsets
from the start, so the full horizon needs O(N^2) state evaluations.  Any loss
Q is solved, as it enters only through each offset's one-stage costs.  State
(k, j) of a horizon-N solve is the start of a horizon N-k problem shifted by
offset j, so the values-only pass keeps one stage in O(N) memory and reads
the optimum of every horizon 0..N off offset 0 as it goes; a played policy
keeps one bit (its action) per state that a play from offset 0 can reach;
the full table, an ``OnlinePolicy`` that also keeps every state's action,
value and tie flag, stays as ``BENCHMARK.json`` names ``solve_two_expert``.
The passes' oracle is ``verify.expectimax_value``.
The backward pass costs a few whole-stage numpy calls per stage: one
``mu * v`` product and two sums per action.  Problems of one horizon can
share a pass (``compare`` solves all its (mu, rho0) groups in one): each
stage is then an offset-major (window, m) array, so every call serves all m
problems at the fixed cost of one, and each column keeps its own pass's
bits.  The Monte Carlo replay of a
policy reads only the offsets each stage can reach from offset 0, an
interval that only widens (6 offsets over N = 8000 at mu = 1/2, eps =
1/e), and looks up eight stages at a time: each distinct 8-stage action
pattern maps a start offset and an outcome byte to the eight stage losses
and the end offset.  Each trial still adds its losses one stage at a time,
in stage order, from the same table cells, so its sum is bit for bit that
of a per-stage replay.  Past a fixed map budget (``_BLOCK_MAP_CELLS``,
reached by wide intervals with many patterns, as at eps = 0.99) the replay
steps one stage at a time instead.
Past |j| of about 37 (eps = 1/e, rho0 = 1/2), rho_j rounds to 0 or 1 and
both stage costs are exactly constant, so the backward pass evaluates only a
window of each stage, about half of the N^2 states: every offset outside it
holds its edge cell's value, lie and truth, as the same float expression on
the same inputs (``_backward``).  The table expands each window to the full
row; a played policy packs its action bits over the window only, all
stages in one flat buffer, and its interval pass reads an offset past a
window's edge as the edge cell.
Both Monte Carlo harnesses draw each honest outcome from one random byte
(``_honest_outcomes``): P(correct) = mu exactly, a trial's outcomes do not
depend on how many trials follow it, and the few bytes that tie with 256 mu
take one uniform each, in row-major cell order.  They are drawn in blocks of
at most ``_DRAW_CELLS`` cells (one trial if it alone has more), and the
replay keeps them one bit per (trial, stage), eight stages to a byte.
Also here: the exact K-expert model on a mistake-count grid (one two-point
average per honest expert, along its axis; two grids held), whose grid point
0 at stage k holds the optimum of horizon N - k, so one solve gives every
horizon; a clairvoyant solver, one forward longest path over (stage,
adversary mistakes) for a block of realizations, which gives every horizon
too; and the baseline of an adversary with no outcome information, whose
coin flips walk the offset with one fixed kernel: an adjoint pass carries
the stage costs back through that kernel, one correlation per stage.  The
K-expert draws are stage-major (cell s (K-1) + i is expert i at stage s), so
a shorter horizon's realization is a prefix of a longer one's: the
``multi-expert`` rows all read one draw at their largest horizon, and their
per-trial losses are nested and correlated across rows, while each row's
stderr is still that of its independent trials.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field

import numpy as np

from .core import GuardError, ModelParams, _check_epsilon, _counts_in, _positive_int
from .exact_eval import _offset_losses, _stage_costs

__all__ = [
    "ValueTable",
    "OnlinePolicy",
    "KExpertParams",
    "MCResult",
    "solve_two_expert",
    "optimal_policy",
    "optimal_value",
    "optimal_values",
    "simulate_online",
    "solve_k_expert",
    "solve_k_expert_values",
    "clairvoyant_value",
    "clairvoyant_values",
    "monte_carlo_k_expert",
    "monte_carlo_k_expert_values",
    "no_information_baseline",
    "no_information_values",
    "no_info_conditional_losses",
]

_TIE_TOL = 1e-12
# cells per block of honest outcomes (one random byte each, exact P = mu, tie uniforms in
# row-major order): a block holds as many whole trials as fit, at least one, so 8 trials at
# N = 8000, multi-expert's 1000 x 160 cells in 3 blocks; no outcome depends on the blocks
_DRAW_CELLS = 1 << 16
# cells per slab of a K-expert stage: as many axis-0 rows of (2k+3)^(K-2) cells as fit, >= 1
_SLAB_CELLS = 1 << 14
# cells of a replay's block maps (distinct 8-stage action patterns x reachable offsets x
# 256 outcome bytes, 72 bytes each, so at most 19 MB) beyond which it replays stage by
# stage instead
_BLOCK_MAP_CELLS = 1 << 18
_STEP = np.array([-1, 0, 0, 1])  # offset move of code lie + 2 * correct
_K_EXPERT_MAX_STATES = 2_000_000
_K_EXPERT_MAX_WORK = 30_000_000


def _saturated_bounds(lie_costs: np.ndarray, truth_costs: np.ndarray) -> tuple[int, int]:
    """Offsets lo0 <= 0 <= hi0 such that every offset <= lo0 has the stage
    costs of offset -N and every offset >= hi0 those of offset N, both
    arrays compared bit for bit (rho_j rounds to 1 or 0 out there)."""
    n = lie_costs.size // 2
    bits = np.stack([lie_costs, truth_costs]).view(np.int64)
    left = np.flatnonzero((bits != bits[:, :1]).any(axis=0))
    right = np.flatnonzero((bits != bits[:, -1:]).any(axis=0))
    lo0 = int(left[0]) - 1 - n if left.size else n
    hi0 = int(right[-1]) + 1 - n if right.size else -n
    return min(lo0, 0), max(hi0, 0)


def _backward(
    params: ModelParams | Sequence[ModelParams],
) -> Iterator[tuple[int, int, np.ndarray, np.ndarray, np.ndarray]]:
    """One backward pass at horizon N holding only the current stage (O(N)
    memory): for k = N-1..0, ``(k, start, v, lie, truth)``, stage k's optimal
    values and the expected continuation loss of lying and of telling the
    truth on a window of its offsets -k..k, the first at index ``start`` of
    the full row.  A lie moves the offset +1 with probability mu, a truth -1
    with probability 1 - mu; the loss Q enters only through the stage costs,
    never the transitions.  Every yielded array is new, so a caller may keep
    it.

    ``params`` is one problem, whose stages are 1-D arrays over offsets, or a
    sequence of m problems of one horizon, stepped together: each stage is
    an offset-major ``(window, m)`` array, cell (j, i) problem i at offset j,
    so every shifted slice is one contiguous block.  Their stage costs are
    stacked as ``(2N+1, m)``, and for m > 1 the mu and 1 - mu columns are
    tiled once as ``(2N+3, m)`` and sliced per stage; a single problem keeps
    scalar products.  Each cell is the same float expression on the same
    inputs as in its problem's own pass, so every column is bit for bit that
    pass.

    With r = N - k stages left the window is offsets max(-k, lo0 - r + 1) ..
    min(k, hi0 + r - 1) (see :func:`_saturated_bounds`; over several
    problems, the union of their windows), and every offset outside it holds
    the value, lie and truth of its edge cell (``_full_row``).  This is
    exact: a state past a problem's own edge meets only the constant costs
    of its tail in its r stages, so by induction from the zero terminal
    stage it is the same float expression on the same inputs as the edge
    cell.  The next stage reads one or two cells past the window, filled
    with the edge cell; a stage inside the full cone does the same numpy
    work as without a window.
    """
    single = isinstance(params, ModelParams)
    problems = [params] if single else list(params)
    if not problems or any(p.horizon != problems[0].horizon for p in problems):
        raise ValueError("a batched backward pass needs one or more problems of one horizon")
    n = problems[0].horizon
    costs = [_stage_costs(p) for p in problems]
    lows, highs = zip(*(_saturated_bounds(*c) for c in costs))
    lie_costs, truth_costs = costs[0] if single else (np.stack(c, axis=1) for c in zip(*costs))
    tiled = len(problems) > 1
    if tiled:
        mus = np.array([p.mu for p in problems])
        up_col, down_col = np.tile(mus, (2 * n + 3, 1)), np.tile(1.0 - mus, (2 * n + 3, 1))
    else:
        up_c, down_c = problems[0].mu, 1.0 - problems[0].mu
    lo, hi = max(1 - n, min(lows)), min(n - 1, max(highs))  # stage N - 1's window
    v = np.zeros((hi - lo + 3,) + lie_costs.shape[1:])  # the terminal stage on lo - 1..hi + 1
    for k in range(n - 1, -1, -1):
        window = slice(n + lo, n + hi + 1)
        if tiled:
            up_c, down_c = up_col[: v.shape[0]], down_col[: v.shape[0]]
        up, down = up_c * v, down_c * v
        lie = lie_costs[window] + up[2:]
        lie += down[1:-1]
        truth = truth_costs[window] + down[:-2]
        truth += up[1:-1]
        # stage k - 1 reads this stage on offsets next_lo - 1..next_hi + 1; its
        # window is one offset wider on each side, clipped to its cone -(k-1)..k-1
        next_lo, next_hi = max(lo - 1, 1 - k), min(hi + 1, k - 1)
        pad_lo, pad_hi = lo - next_lo + 1, next_hi + 1 - hi
        if pad_lo or pad_hi:
            buf = np.empty((hi - lo + 1 + pad_lo + pad_hi,) + v.shape[1:])
            v = np.maximum(lie, truth, out=buf[pad_lo : buf.shape[0] - pad_hi])
            buf[:pad_lo] = v[0]
            buf[buf.shape[0] - pad_hi :] = v[-1]
        else:
            v = buf = np.maximum(lie, truth)
        yield k, lo + k, v, lie, truth
        v, lo, hi = buf, next_lo, next_hi


def _full_row(a: np.ndarray, k: int, start: int) -> np.ndarray:
    """Stage k's 2k+1 offsets from a window ``a`` of :func:`_backward` that
    starts at index ``start``: each offset outside it holds its edge cell."""
    row = np.empty(2 * k + 1, dtype=a.dtype)
    row[:start] = a[0]
    row[start : start + a.size] = a
    row[start + a.size :] = a[-1]
    return row


@dataclass(frozen=True, eq=False)
class OnlinePolicy:
    """The optimal online adversary as played: its root value and, per stage
    k, the offsets lo[k]..hi[k] a play from offset 0 can reach and its lie
    bits there, one ``actions`` row per stage over lo[-1]..hi[-1] (bit s,
    big-endian, is offset lo[-1] + s; zero elsewhere and in the rows that pad
    N to whole 8-stage blocks).  :class:`ValueTable` also keeps every state's
    action, value and tie flag."""

    params: ModelParams
    root_value: float
    lo: np.ndarray
    hi: np.ndarray
    actions: np.ndarray


@dataclass(frozen=True, eq=False)
class ValueTable(OnlinePolicy):
    """An :class:`OnlinePolicy` that also keeps every state's action, value
    and tie flag, kept as ``BENCHMARK.json`` names :func:`solve_two_expert`.

    ``values[k]`` holds the optimal continuation loss at stage k for offsets
    j = -k..k (index j + k), as ``lie_optimal[k]`` the action (ties lie) and
    ``tie_flags[k]`` where both actions are optimal to within tolerance.
    ``states_evaluated`` counts the table's states (the sum of 2k+1, N^2):
    the pass evaluates those in each stage's window and copies the rest from
    its edge cells, which hold the same bits (see ``_backward``).
    """

    lie_optimal: list[np.ndarray]
    values: list[np.ndarray]
    tie_flags: list[np.ndarray]
    states_evaluated: int


def solve_two_expert(params: ModelParams) -> ValueTable:
    """Fill the two-expert value table by backward induction over offsets,
    keeping every stage's values, maximizing actions and tie flags; its
    played rows are :func:`optimal_policy`'s bit for bit."""
    n = params.horizon
    values: list[np.ndarray] = [np.empty(0)] * n + [np.zeros(2 * n + 1)]
    lie_optimal: list[np.ndarray] = [np.empty(0, dtype=bool)] * n
    tie_flags: list[np.ndarray] = [np.empty(0, dtype=bool)] * n
    for k, start, *arrays in _backward(params):
        v, lie, truth = (_full_row(a, k, start) for a in arrays)
        values[k] = v
        lie_optimal[k] = lie >= truth
        diff = lie - truth
        scale = np.maximum(1.0, np.maximum(np.abs(lie), np.abs(truth)))
        tie_flags[k] = np.abs(diff) <= _TIE_TOL * scale
    played = _reachable_actions(((0, 2 * k + 1, np.packbits(row))
                                 for k, row in enumerate(lie_optimal)), n)
    return ValueTable(params, float(values[0][0]), *played, lie_optimal, values, tie_flags, n * n)


def optimal_policy(params: ModelParams) -> OnlinePolicy:
    """The optimal online policy, equal to ``solve_two_expert``'s bit for
    bit.  While the backward pass runs, each stage's actions are packed
    over its window only, into one flat buffer of exactly their bytes
    (3.85 MB at N = 8000, mu = 1/2, against 8 MB of full rows), freed as
    one block; the interval pass then keeps only the reachable bits
    (0.14 MB)."""
    n = params.horizon
    for k, start, v, lie, truth in _backward(params):
        if k == n - 1:  # stage N - 1's window fixes every stage's (see _backward)
            starts = np.maximum(0, start - 2 * np.arange(n - 1, -1, -1))
            widths = np.minimum(2 * np.arange(n), start + lie.shape[0] - 1) - starts + 1
            at = np.concatenate(([0], np.cumsum(-(-widths // 8))))  # stage k's bytes at[k]..
            bits = np.empty(at[-1], dtype=np.uint8)
        bits[at[k] : at[k + 1]] = np.packbits(lie >= truth)
    rows = ((int(starts[k]), int(widths[k]), bits[at[k] : at[k + 1]]) for k in range(n))
    return OnlinePolicy(params, float(v[0]), *_reachable_actions(rows, n))


def optimal_values(params: ModelParams | Sequence[ModelParams]) -> np.ndarray:
    """Optimal online expected loss of every horizon r = 0..N from
    ``params.rho0``: ``out[r]`` equals ``solve_two_expert`` at horizon r
    bit for bit, read off one pass at horizon N (offset 0 of stage N - r).
    A sequence of m problems of one horizon N shares one pass and gives an
    (m, N+1) array, row i bit for bit problem i's own pass."""
    single = isinstance(params, ModelParams)
    n = params.horizon if single else max((p.horizon for p in params), default=0)
    out = np.zeros((n + 1,) if single else (len(params), n + 1))
    for k, start, v, _, _ in _backward(params):
        out[..., n - k] = v[k - start]
    return out


def optimal_value(params: ModelParams) -> float:
    """The optimal online expected loss over the full horizon."""
    return float(optimal_values(params)[-1])


@dataclass(frozen=True)
class MCResult:
    """Monte Carlo summary with every trial's loss, reproducible from (seed,
    trials, params); ``stderr`` is NaN for a single trial.  Each honest
    outcome costs one random byte and is correct with probability exactly
    mu, and ``per_trial[:t]`` is the same for every trial count >= t (see
    ``_honest_outcomes``)."""

    trials: int
    mean: float
    stderr: float
    seed: int
    per_trial: np.ndarray = field(compare=False, repr=False)


def _byte_split(mu) -> tuple[np.ndarray, np.ndarray]:
    """256 mu split into its whole part m and fraction r; both are exact in
    float, and m / 256 + r / 256 == mu."""
    scaled = 256.0 * np.asarray(mu, dtype=float)
    m = np.floor(scaled)
    return m, scaled - m


def _honest_outcomes(seed: int, mu: np.ndarray, trials: int) -> Iterator[np.ndarray]:
    """Blocks of i.i.d. honest outcomes, one row per trial, cell c correct
    with probability ``mu[c]``: each block as many trials as fit in
    ``_DRAW_CELLS`` cells, or one trial if it alone holds more.

    Each cell costs one random byte b of ``Philox(key=seed).random_raw``,
    read little-endian within each word: trial t's cells are the first
    bytes of its own ceil(cells / 8) words.  With 256 mu = m + r (m whole,
    0 <= r < 1) the cell is correct iff b < m, or b == m and a uniform
    U < r; the uniforms come from ``Philox(key=seed).jumped()`` in
    row-major cell order, and none is drawn where r == 0 (so none at
    mu = 1/2).  P(correct) = m/256 + r/256 = mu exactly whenever r is a
    multiple of 2**-53 (every mu >= 2**-9); below that, U < r rounds r up
    to a multiple of 2**-53, an error under 2**-61 in P.  So a trial's
    outcomes depend on neither the block size nor the trials after it.
    """
    cells = mu.size
    words = -(-cells // 8)
    m, r = _byte_split(mu)
    m = m.astype(np.uint8)
    tied = r > 0.0
    bits = np.random.Philox(key=seed)
    ties = np.random.Generator(np.random.Philox(key=seed).jumped()) if tied.any() else None
    step = max(1, _DRAW_CELLS // cells)
    for lo in range(0, trials, step):
        rows = min(step, trials - lo)
        b = (bits.random_raw(rows * words).astype("<u8", copy=False).view(np.uint8)
             .reshape(rows, 8 * words)[:, :cells])
        correct = b < m
        if ties is not None:
            tie = b == m
            tie &= tied
            at = np.flatnonzero(tie)  # row-major
            correct.flat[at] = ties.random(at.size) < r[at % cells]
        # drop the block's bytes before the caller runs and its outcomes before the
        # next block is drawn, so at most one block is held
        b = tie = None
        yield correct
        del correct


def _mc_summary(losses: np.ndarray, trials: int, seed: int) -> MCResult:
    # one trial leaves the spread, and so the stderr, undefined (NaN)
    sd = float(losses.std(ddof=1)) if trials > 1 else math.nan
    return MCResult(trials, float(losses.mean()), sd / math.sqrt(trials), seed, losses)


def _reachable_actions(
    packed: Iterable[tuple[int, int, np.ndarray]], n: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The played rows of a policy from its N stages' action bits: the
    ``lo``, ``hi`` and ``actions`` of an :class:`OnlinePolicy`.  Row k of
    ``packed`` is ``(start, width, bits)``, stage k's actions on row indices
    start..start + width - 1 (offset j is row index j + k) as ``np.packbits``
    packs them; every index outside holds its nearer edge's action, as the
    offsets outside a window of :func:`_backward` do.  A full row is
    ``(0, 2k+1, bits)``; :func:`optimal_policy`'s rows are views of its one
    flat buffer, made as they are read.

    Stage k reaches exactly the offsets lo_k..hi_k: every offset can stay put
    (a wrong lie, a right truth), so lo_{k+1} = lo_k - (truth at lo_k) and
    hi_{k+1} = hi_k + (lie at hi_k).  So lo falls and hi rises, and their
    union is lo[-1]..hi[-1].  Each row is read only in the bytes that cover
    lo_k..hi_k; a stage whose interval passes its window's edge reads each
    index there as the edge cell, which holds the same bit.
    """
    # every buffer at its final size: grown ones fragment the heap of a long run
    lo, hi, bits = np.empty(n, dtype=np.intp), np.empty(n, dtype=np.intp), [0] * n
    a = b = 0  # lo_k + k and hi_k + k, stage k's row indices
    for k, (start, size, row) in enumerate(packed):
        lo[k], hi[k] = a - k, b - k
        c, d = a - start, b - start  # the interval's indices in the window
        if c < 0 or d >= size:  # clamp each index to the window's edge cells
            cells = np.unpackbits(row, count=size)[np.clip(np.arange(c, d + 1), 0, size - 1)]
            x = int.from_bytes(np.packbits(cells).tobytes(), "big") >> (-cells.size % 8)
        else:
            x = int.from_bytes(row[c >> 3 : (d >> 3) + 1].tobytes(), "big") >> (7 - (d & 7))
            x &= (2 << (d - c)) - 1
        bits[k] = x  # bit i is row index b - i
        a += x >> (b - a)
        b += 1 + (x & 1)
    width = int(hi[-1] - lo[-1]) + 1
    nbytes = -(-width // 8)
    shifts = (hi[-1] - hi + 8 * nbytes - width).tolist()
    rows = np.zeros((-(-n // 8) * 8, nbytes), dtype=np.uint8)
    rows[:n] = np.fromiter(((x << s).to_bytes(nbytes, "big") for x, s in zip(bits, shifts)),
                           dtype=f"S{nbytes}", count=n).view(np.uint8).reshape(n, nbytes)
    return lo, hi, rows


def _block_maps(patterns: np.ndarray, table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eight stages of a replay as one lookup.  ``patterns`` is (P, 8, W):
    pattern p's action at stage t of a block and offset index s.  Cell
    m = (p W + s) 256 + c, for a block of pattern p entered at offset index
    s with outcome byte c (stage t correct iff bit 7 - t is set), holds the
    eight stage losses ``losses[:, m]``, read from the flat loss table
    ``table`` as the per-stage replay reads them, and 256 times the end
    offset index, ``ends[m]``.  An offset index leaves 0..W-1 only from a
    start its block cannot reach, so it is clipped there."""
    p, _, width = patterns.shape
    first = np.arange(p)[:, None, None] * (8 * width)  # pattern p's stage 0 in the flat bits
    pos = np.broadcast_to(np.arange(width)[:, None], (p, width, 256))
    byte = np.arange(256)
    losses = np.empty((8, p, width, 256))
    for t in range(8):
        code = patterns.take(first + t * width + pos) + 2 * (byte >> (7 - t) & 1)
        table.take(4 * pos + code, out=losses[t])
        pos = np.clip(pos + _STEP.take(code), 0, width - 1)
    return losses.reshape(8, -1), 256 * pos.ravel()


def simulate_online(
    params: ModelParams, policy: OnlinePolicy, trials: int, seed: int
) -> MCResult:
    """Play the policy's actions through ``trials`` independent episodes with
    honest predictions drawn i.i.d. at accuracy mu, charging Q of each
    stage's prediction error; the empirical mean loss converges to the
    policy's root value.

    Trial t's N outcomes are cells 0..N-1 of its row of
    ``_honest_outcomes``: one random byte each, correct with probability
    exactly mu, the bytes that tie with 256 mu taking one uniform each in
    row-major order, so the first t trials do not depend on ``trials``.
    They are kept eight stages to a byte, one row of ``trials`` bytes per
    block of eight stages (N / 8 x trials bytes).  A stage's loss is row
    4i + lie + 2 * correct of one flat table, at offset index i: Q(1 -
    rho_j), Q(1), Q(0) or Q(rho_j).

    The replay reads the policy's stored rows as they are: only the offsets
    each stage can reach, a few at eps = 1/e.  It deduplicates the
    blocks' action patterns and, for each, maps a start offset and an
    outcome byte to the block's eight stage losses and end offset
    (``_block_maps``), so a block costs two gathers.  Each trial still adds
    its losses one stage at a time, in stage order, from the same table
    cells, so every per-trial loss is bit for bit the per-stage replay's.
    A last partial block is charged for its own stages only.  When the maps
    would exceed ``_BLOCK_MAP_CELLS`` cells (many patterns on a wide
    interval, as at eps = 0.99), each stage instead gathers every trial's
    action and loss and moves the trial.
    """
    if policy.params != params:
        raise ValueError("policy was solved for different parameters")
    trials = _positive_int("trials", trials)
    n = params.horizon
    blocks = -(-n // 8)
    lo, hi, actions = policy.lo, policy.hi, policy.actions
    low, width = int(lo[-1]), int(hi[-1] - lo[-1] + 1)
    # stage 8b + t of a trial is bit 7 - t of its byte in row b
    outcomes = np.empty((blocks, trials), dtype=np.uint8)
    first = 0
    for correct in _honest_outcomes(seed, np.full(n, params.mu), trials):
        outcomes[:, first : first + correct.shape[0]] = np.packbits(correct, axis=1).T
        first += correct.shape[0]
        del correct  # so the next block can reuse its memory
    q_lie, q_truth = _offset_losses(params, params.rho0)
    # offset index s is offset low + s
    table = np.stack([q_truth, np.full_like(q_truth, params.q(1.0)),
                      np.full_like(q_truth, params.q(0.0)), q_lie],
                     axis=1)[n + low : n + low + width].ravel()
    keys = actions.reshape(blocks, -1)
    patterns, of_block = np.unique(keys.view(np.dtype((np.void, keys.shape[1]))).ravel(),
                                   return_inverse=True)
    pos = np.full(trials, -low, dtype=np.intp)
    loss = np.zeros(trials)
    if patterns.size * width * 256 <= _BLOCK_MAP_CELLS:
        patterns = np.unpackbits(patterns.view(np.uint8).reshape(-1, 8, actions.shape[1]),
                                 axis=2, count=width)
        losses, ends = _block_maps(patterns, table)
        pos *= 256
        starts = of_block * (width * 256)
        for b in range(blocks):
            cell = pos + outcomes[b]
            cell += starts[b]
            for charge in losses.take(cell, axis=1)[: n - 8 * b]:
                loss += charge
            pos = ends.take(cell)
    else:
        for b in range(blocks):
            lies = np.unpackbits(actions[8 * b : 8 * b + 8], axis=1, count=width)
            correct = np.unpackbits(outcomes[b][None], axis=0)
            correct <<= 1
            for t in range(min(8, n - 8 * b)):
                code = lies[t].take(pos)
                code += correct[t]
                loss += table.take(4 * pos + code)
                pos += _STEP.take(code)
    return _mc_summary(loss, trials, seed)


@dataclass(frozen=True)
class KExpertParams:
    """One adversary against K-1 independent honest experts."""

    epsilon: float
    horizon: int
    accuracies: tuple[float, ...]
    initial_weights: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "accuracies", tuple(float(a) for a in self.accuracies))
        object.__setattr__(
            self, "initial_weights", tuple(float(w) for w in self.initial_weights)
        )
        _check_epsilon(self.epsilon)
        object.__setattr__(self, "horizon", _positive_int("horizon", self.horizon))
        if len(self.accuracies) < 1:
            raise ValueError("need at least one honest expert")
        if any(not 0.0 < a < 1.0 for a in self.accuracies):
            raise ValueError("every accuracy must be strictly inside (0, 1)")
        if len(self.initial_weights) != len(self.accuracies) + 1:
            raise ValueError(
                "initial_weights must list the adversary first, then every honest expert"
            )
        w = self.initial_weights
        if not (min(w) > 0.0 and sum(w) < math.inf):  # a NaN weight makes the sum NaN
            raise ValueError(f"initial weights must be finite and strictly positive, got {w}")

    @property
    def n_experts(self) -> int:
        return len(self.initial_weights)

    def reduced(self) -> ModelParams:
        """The two-expert model: one honest expert of the mean accuracy
        against the adversary at its relative weight w0 / sum(w)."""
        w = self.initial_weights
        rho = w[0] / sum(w)
        if not 0.0 < rho < 1.0:
            raise ValueError(f"initial weights {w} round the adversary's relative weight "
                             f"to {rho}; it must be in (0, 1)")
        return ModelParams(self.epsilon, float(np.mean(self.accuracies)), self.horizon, rho)


def solve_k_expert_values(params: KExpertParams) -> np.ndarray:
    """Exact optimal online expected loss against K-1 honest experts over
    every horizon r = 0..N: ``out[r]`` equals :func:`solve_k_expert` at
    horizon r bit for bit, read off one solve at horizon N.

    States are the honest-minus-adversary mistake-count differences, a grid
    of (2k+1)^(K-1) points at stage k (normalized weights are invariant to
    a common shift, which removes one dimension).  The honest experts are
    independent, so each action's expectation is one two-point average per
    honest expert i along its own axis: if i is right (probability mu_i) a
    lie lowers d_i and a truth keeps it; if i errs a lie keeps d_i and a
    truth raises it.  A grid point's stage costs depend on d alone, not on
    the stage, so d = 0 at stage k starts a horizon N - k problem and holds
    its optimum, the same float expressions on the same inputs as a solve
    at that horizon.  Only this grid and the next are held: each stage fills
    the next a slab of axis-0 rows at a time (``_SLAB_CELLS``), each cell
    the same float expression whatever the slabs, so no bit depends on them.
    Guards: at most 2,000,000 terminal states, (2N+1)^(K-1), and at most
    30,000,000 evaluated over all stages, the sum of (2k+1)^(K-1) over
    k < N; weights that overflow double precision are a guard violation.
    """
    k_experts = params.n_experts
    n = params.horizon
    honest = k_experts - 1
    states = (2 * n + 1) ** honest
    if states > _K_EXPERT_MAX_STATES:
        raise GuardError(
            f"(2N+1)^(K-1) = {states} states exceeds the budget {_K_EXPERT_MAX_STATES}"
        )
    work = sum((2 * k + 1) ** honest for k in range(n))
    if work > _K_EXPERT_MAX_WORK:
        raise GuardError(
            f"K={k_experts} and N={n}: {work} evaluated states exceed the budget "
            f"{_K_EXPERT_MAX_WORK}"
        )
    eps, accuracies, w0 = params.epsilon, params.accuracies, params.initial_weights
    out = np.zeros(n + 1)
    v = np.zeros((2 * n + 1,) * honest)
    for k in range(n - 1, -1, -1):
        size = 2 * k + 1
        with np.errstate(over="ignore"):  # an overflow is the guard violation below
            powers = eps ** np.arange(-k, k + 1)
            axis_w = [w0[1 + i] * powers.reshape((-1,) + (1,) * (honest - 1 - i))
                      for i in range(honest)]
        nxt = np.empty((size,) * honest)
        step = max(1, _SLAB_CELLS // (size + 2) ** (honest - 1))
        for r0 in range(0, size, step):
            r1 = min(size, r0 + step)
            slab_w = [axis_w[0][r0:r1], *axis_w[1:]]
            total_w = w0[0] + sum(slab_w)
            if not np.all(np.isfinite(total_w)):
                raise GuardError(f"epsilon={eps} and N={n}: weights overflow at stage {k}")
            wrong_w = sum((1.0 - mu) * a for mu, a in zip(accuracies, slab_w))
            lie = (wrong_w + w0[0]) / total_w + _grid_average(v[r0 : r1 + 2], accuracies, 0)
            truth = wrong_w / total_w + _grid_average(v[r0 : r1 + 2], accuracies, 1)
            np.maximum(lie, truth, out=nxt[r0:r1])
        v = nxt
        out[n - k] = v[(k,) * honest]
    return out


def _grid_average(v: np.ndarray, accuracies: tuple[float, ...], first: int) -> np.ndarray:
    """The expectation of the next stage's values ``v`` over every honest
    expert's outcome, one two-point average mu_i * a + (1 - mu_i) * b per
    axis i, with a the window of v along axis i from index ``first`` and b
    the one after it (``first`` = 0 for a lie, 1 for a truth), each window
    two cells shorter than its source's axis."""
    for i, mu in enumerate(accuracies):
        size = v.shape[i] - 2
        axis = (slice(None),) * i
        a = v[axis + (slice(first, first + size),)]
        b = v[axis + (slice(first + 1, first + 1 + size),)]
        v = mu * a + (1.0 - mu) * b
    return v


def solve_k_expert(params: KExpertParams) -> float:
    """Exact optimal online expected loss against K-1 honest experts over
    the full horizon (see :func:`solve_k_expert_values`)."""
    return float(solve_k_expert_values(params)[-1])


def _clairvoyant_forward(correct: np.ndarray, params: KExpertParams) -> np.ndarray:
    """Clairvoyant optimum of every realization in ``correct`` (trials x N x
    (K-1), stage-major, nonzero marking a correct honest prediction) over
    every horizon: column r of the (trials x N+1) result is each trial's
    optimum over its first r stages.

    With the honest side known the only state is the adversary's own mistake
    count a, so this is a forward longest path over (stage k, a), as
    ``exact_eval._offline_forward`` is over lies so far: a lie moves a to
    a + 1, a truth keeps it, and stage k's best total at each a = 0..k+1 is
    the larger of its two ways in.  Every horizon's optimum is the best over
    a after its last stage, O(N^2) per trial.  The stage costs are those of
    a backward pass, summed in stage order instead.
    """
    trials, n, _ = correct.shape
    eps = params.epsilon
    w0 = np.array(params.initial_weights)
    wrong = correct == 0
    powers = eps ** np.arange(n, dtype=float)
    before = np.cumsum(wrong, axis=1, dtype=np.intp)
    before -= wrong
    honest_w = w0[1:] * powers.take(before)  # (trials, N, K-1)
    honest_total = honest_w.sum(axis=2)
    honest_w *= wrong
    honest_wrong = honest_w.sum(axis=2)
    del before, honest_w
    adv_w = w0[0] * powers  # over adversary mistake counts
    # eps < 1, so stage k's smallest total weight is at k mistakes; name the
    # last stage that underflows, where a backward pass would first meet one
    underflow = np.flatnonzero(~np.all(adv_w + honest_total > 0.0, axis=0))
    if underflow.size:
        raise GuardError(
            f"epsilon={eps} and N={n}: all weights underflow to 0 at stage {underflow[-1]}")
    out = np.zeros((trials, n + 1))
    best = np.zeros((trials, 1))  # over a = 0..k before stage k
    for k in range(n):
        total = adv_w[: k + 1] + honest_total[:, k, None]
        lie = (adv_w[: k + 1] + honest_wrong[:, k, None]) / total + best
        truth = honest_wrong[:, k, None] / total + best
        best = np.empty((trials, k + 2))
        best[:, : k + 1] = truth
        best[:, k + 1] = lie[:, k]
        np.maximum(best[:, 1 : k + 1], lie[:, :k], out=best[:, 1 : k + 1])
        best.max(axis=1, out=out[:, k + 1])
    return out


def clairvoyant_values(realized, params: KExpertParams) -> np.ndarray:
    """Optimal total loss of each realization in ``realized`` (trials x (K-1)
    x N, 1 marking a correct stage) when it is known in advance: the last
    column of :func:`_clairvoyant_forward`, one forward pass over all trials,
    O(N^2) per trial.
    """
    r = np.asarray(realized)
    honest = params.n_experts - 1
    n = params.horizon
    if r.ndim != 3 or r.shape[1:] != (honest, n):
        raise ValueError(f"realizations must have shape (trials, {honest}, {n}), got {r.shape}")
    if not np.all((r == 0) | (r == 1)):
        raise ValueError("realization entries must be 0 (wrong) or 1 (correct)")
    return _clairvoyant_forward(r.transpose(0, 2, 1), params)[:, -1].copy()


def clairvoyant_value(realized_honest, params: KExpertParams) -> float:
    """Clairvoyant optimum of one realization, a (K-1) x N array with 1
    marking a correct stage (see :func:`clairvoyant_values`)."""
    return float(clairvoyant_values(np.asarray(realized_honest)[None], params)[0])


def monte_carlo_k_expert_values(
    params: KExpertParams, trials: int, seed: int, horizons: Sequence[int]
) -> list[MCResult]:
    """Clairvoyant Monte Carlo estimates at each of ``horizons`` (each in
    1..N), all read off one draw at horizon N: horizon r's realizations are
    the first r stages of each trial's (see :func:`monte_carlo_k_expert`).
    So the estimates share their trials: their per-trial losses are nested
    prefixes, correlated across horizons, while each one's stderr is that
    of ``trials`` independent trials.  Each block of ``_honest_outcomes``
    takes one forward pass (:func:`_clairvoyant_forward`), and only the
    requested horizons' losses are kept.
    """
    trials = _positive_int("trials", trials)
    honest = params.n_experts - 1
    n = params.horizon
    cols = np.asarray(horizons)
    if not _counts_in(cols, 1, n):
        raise ValueError(f"horizons must lie in 1..{n} and be whole numbers, got {cols.tolist()}")
    cols = cols.astype(np.intp)
    # stage s of expert i is cell s * (K-1) + i, so every prefix of stages is
    # a prefix of cells
    mus = np.tile(params.accuracies, n)
    losses = np.concatenate([
        _clairvoyant_forward(correct.reshape(-1, n, honest), params)[:, cols].T
        for correct in _honest_outcomes(seed, mus, trials)
    ], axis=1)
    return [_mc_summary(row, trials, seed) for row in losses]


def monte_carlo_k_expert(params: KExpertParams, trials: int, seed: int) -> MCResult:
    """Clairvoyant Monte Carlo estimate of the K-expert adversarial loss:
    sample honest realizations and let the adversary optimize against each
    known sequence (an upper bound on the online value that
    :func:`solve_k_expert` computes exactly).  Deterministic given the seed.

    Trial t's realization is its row of ``_honest_outcomes`` over N x (K-1)
    cells, stage-major (cell s (K-1) + i is expert i at stage s): one random
    byte per cell, correct with probability exactly that expert's accuracy,
    the tied bytes taking one uniform each in row-major order; the first t
    trials do not depend on ``trials``.
    """
    return monte_carlo_k_expert_values(params, trials, seed, [params.horizon])[0]


def no_info_conditional_losses(q: float, rho: float, mu: float) -> tuple[float, float]:
    """Per-stage expected loss of predicting 0 with probability q, split by
    the (unknown) true outcome; q = 1/2 equalizes the two."""
    return (1.0 - mu + mu * rho - q * rho, 1.0 - mu + mu * rho - (1.0 - q) * rho)


def no_information_values(params: ModelParams) -> np.ndarray:
    """Expected loss of the coin-flip adversary (the optimum under no
    outcome information) over every horizon r = 0..N: per stage
    1 - mu + mu*rho - rho/2, taken under the exact offset distribution the
    coin flips induce.

    The coin flips move the offset by a lazy walk with one fixed kernel K:
    +1 with probability mu/2, -1 with probability (1 - mu)/2.  Stage k's
    expected cost is then ((K^T)^k c)(0) for c the stage costs averaged
    over the two actions, so the adjoint pass starts from u = c on offsets
    -N..N, reads u at offset 0 and replaces u by its ``"valid"`` correlation
    with K, one numpy call per stage.  It carries no offset law, so no mass
    can drift; ``exact_eval.mixed_policy_values(0.5, params)`` is its oracle.
    """
    if not params.is_absolute:
        raise ValueError("the no-information baseline is derived for the absolute loss")
    n, mu = params.horizon, params.mu
    lie_costs, truth_costs = _stage_costs(params)
    u = 0.5 * lie_costs + 0.5 * truth_costs
    kernel = np.array([0.5 * (1.0 - mu), 0.5 * (1.0 - mu) + 0.5 * mu, 0.5 * mu])
    stages = np.empty(n)
    for k in range(n):
        stages[k] = u[n - k]  # offset 0; u covers offsets -(n - k)..n - k
        u = np.correlate(u, kernel, "valid")
    return np.concatenate(([0.0], np.cumsum(stages)))


def no_information_baseline(params: ModelParams) -> float:
    """Expected loss of the coin-flip adversary over the full horizon."""
    return float(no_information_values(params)[-1])
