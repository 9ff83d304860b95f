"""Max-margin training of order-violation embeddings.

One epoch engine serves both trainers: the label-only trainer feeds it
label-label edges, the joint trainer additionally registers instance
nodes whose embeddings are computed from feature rows through a linear
map (plus the exponential map at zero on the ball). With no instances the
joint path reduces to label-only training exactly, batch for batch.

The engine works on graph rows: labels are the hierarchy's rows, instance
``i`` (feature row ``i``) is row ``len(h.ids) + i``, and positives are a
``(k, 2)`` array of (parent, child) rows. A negative is no closure pair
(``Hierarchy.closure_rows``), positive or self-pair.

The loss over a batch is ``sum_pos E + sum_neg max(0, margin - E)``.
Negatives come from pick-per-level corruption by default: for each
positive, one corrupted edge per level and per side (corrupt-u,
corrupt-v), skipping corruptions that are true pairs. That is the plain
sampler's pinned stream, a scalar retry loop (``_retry_loop``) whose memory
per call is bounded per generator word it reads, so a larger span costs no
more peak memory. Uniform and rebalanced negatives take the exact sampler
(``_sample_negatives_rebalanced``), which draws each corruption from the
valid candidates and skips a slot only when none is left. The engine calls
the sampler once per span (the fewest whole consecutive batches holding at
least ``SPAN_POSITIVES`` = 1024 positives, or all that are left), with the
span's parent and child rows; it returns the pairs the per-positive draws
would give, in the same order and from the same random stream, and how many
fall to each positive, so the engine cuts them into batches. Each batch
then takes one kernel call and one gradient scatter (``_batch_step``).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import geometry
from .geometry import ConeParams
from .hierarchy import RETRY_CAP, EdgeSet, Hierarchy, SplitResult, name_some
from .metrics import ConfusionCounts, accuracy, precision_recall_f1


class TrainingError(RuntimeError):
    """Divergence or non-finite numbers during optimization."""


@dataclass
class TrainConfig:
    """Knobs for embedding trainers; defaults follow the label-only recipe."""

    kind: str = "ec"  # oe | ec | hc
    dim: int = 2
    margin: float = 1.0
    lr: float = 0.01
    epochs: int = 500
    batch_size: int = 10
    optimizer: str = "adam"  # adam | rsgd (labels only)
    aperture_k: float = 0.1
    oe_squared: bool = False
    pick_per_level: bool = True
    neg_passes: int = 1
    seed: int = 0
    # upper bound for initialization norms; None means 0.9 * domain cap.
    # Compact inits (e.g. 0.3) help low-dimensional order embeddings grow
    # outward instead of untangling.
    init_norm_hi: float | None = None
    # joint-only knobs; lr applies to labels, lr_instances to the linear map
    lr_instances: float = 1e-3
    rebalance_images: bool = False

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError(f"embedding dim must be at least 1, got {self.dim}")
        if self.margin <= 0:
            raise ValueError("margin must be positive")
        if self.epochs < 0:
            raise ValueError(f"epochs must be nonnegative, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError("batch size must be positive")
        if self.neg_passes < 1:
            raise ValueError(f"neg_passes must be at least 1, got {self.neg_passes}")
        # zero freezes that parameter group; negative rates are invalid
        if self.lr < 0 or self.lr_instances < 0:
            raise ValueError("learning rates must be nonnegative")
        if self.optimizer not in ("adam", "rsgd"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        if self.optimizer == "rsgd" and self.kind != "hc":
            raise ValueError("rsgd only applies to points on the ball")

    def cone_params(self) -> ConeParams:
        return ConeParams(kind=self.kind, k=self.aperture_k, oe_squared=self.oe_squared)


@dataclass
class EmbeddingTable:
    """One point per label, rows in sorted node-id order."""

    node_ids: tuple[str, ...]
    coords: np.ndarray
    params: ConeParams
    _row: dict = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if len(self.node_ids) != self.coords.shape[0]:
            raise ValueError("node id count does not match coordinate rows")
        self._row = {nid: i for i, nid in enumerate(self.node_ids)}

    def rows(self, node_ids: Sequence[str]) -> np.ndarray:
        """Rows of many labels; a ``ValueError`` names the labels the table lacks."""
        try:
            return np.array([self._row[nid] for nid in node_ids], dtype=np.int64)
        except KeyError:
            missing = sorted(set(node_ids) - self._row.keys())
            raise ValueError(
                f"model lacks {len(missing)} of the {len(set(node_ids))} hierarchy labels "
                f"being scored: {name_some(missing)}"
            ) from None


def random_coords(
    n: int,
    dim: int,
    params: ConeParams,
    rng: np.random.Generator,
    norm_hi: float | None = None,
) -> np.ndarray:
    """Random directions at norms uniform in ``[eps + pad, norm_hi]``.

    ``norm_hi`` defaults to 0.9 of the domain cap (unit ball for order
    embeddings, which have no domain floor). Order-embedding directions
    are drawn in the positive orthant, where the reversed product order
    actually nests (signed directions leave low-dimensional inits
    tangled).
    """
    cap = 1.0 if params.norm_max == np.inf else params.norm_max
    lo = params.epsilon + geometry.DOMAIN_PAD
    hi = 0.9 * cap if norm_hi is None else norm_hi
    if hi <= lo:
        raise ValueError(f"init norm bound {hi} must exceed the domain floor {lo}")
    dirs = rng.standard_normal((n, dim))
    if params.kind == "oe":
        dirs = np.abs(dirs)
    dirs /= np.maximum(np.linalg.norm(dirs, axis=1, keepdims=True), 1e-15)
    norms = rng.uniform(lo, hi, size=n)
    return dirs * norms[:, None]


# ---------------------------------------------------------------------------
# Optimizers
# ---------------------------------------------------------------------------

@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @classmethod
    def like(cls, x: np.ndarray) -> "AdamState":
        return cls(np.zeros_like(x), np.zeros_like(x), 0)


def adam_step(
    param: np.ndarray,
    grad: np.ndarray,
    state: AdamState,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> np.ndarray:
    """One Adam update: the moments change in place, ``param`` does not.

    Each operation rounds as in ``param - lr * mhat / (sqrt(vhat) + eps)``
    with ``m = beta1 * m + (1 - beta1) * grad`` and
    ``v = beta2 * v + (1 - beta2) * grad * grad``; the result is a new array.
    """
    state.t += 1
    m, v = state.m, state.v
    m *= beta1
    m += (1.0 - beta1) * grad
    v *= beta2
    v += (1.0 - beta2) * grad * grad
    step = m / (1.0 - beta1**state.t)
    step *= lr
    den = v / (1.0 - beta2**state.t)
    np.sqrt(den, out=den)
    den += eps
    step /= den
    return np.subtract(param, step, out=step)


def rsgd_step(points: np.ndarray, grad: np.ndarray, lr: float) -> np.ndarray:
    """Riemannian SGD on the ball: rescale, then exponential-map the step."""
    riem = geometry.riemannian_rescale_rows(points, grad)
    return geometry.exp_map_rows(points, -lr * riem)


def optimizer_step(
    params: np.ndarray,
    grads: np.ndarray,
    state: AdamState | None,
    config: TrainConfig,
) -> np.ndarray:
    """One update of an embedding table, projected back into the domain.

    A row that lands within 1e-15 of the origin is given a direction from
    ``project_rows``'s fixed generator, not from the training stream, so
    the samplers' draws never depend on the updates.
    """
    if not np.all(np.isfinite(grads)):
        bad = int(np.count_nonzero(~np.isfinite(grads)))
        raise TrainingError(f"non-finite gradient ({bad} entries)")
    if config.optimizer == "rsgd":
        updated = rsgd_step(params, grads, config.lr)
    else:
        if state is None:
            raise TrainingError("adam requires moment state")
        updated = adam_step(params, grads, state, config.lr)
    return geometry.project_rows(updated, config.cone_params())


# ---------------------------------------------------------------------------
# Loss
# ---------------------------------------------------------------------------

def _embed_part(
    nodes: np.ndarray,
    coords: np.ndarray,
    feats: np.ndarray | None,
    w: np.ndarray | None,
    hc: bool,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Points of graph rows and the pre-map rows ``z`` of the instances among them.

    Rows below ``len(coords)`` are labels; an instance row ``r`` is
    ``z = feats[r - len(coords)] @ w``, wrapped in ``exp_0`` on the ball.
    ``z`` is None when ``nodes`` holds no instance.
    """
    if w is None:
        return coords[nodes], None
    inst = nodes >= len(coords)
    if not inst.any():
        return coords[nodes], None
    out = np.empty((len(nodes), coords.shape[1]))
    out[~inst] = coords[nodes[~inst]]
    z = feats[nodes[inst] - len(coords)] @ w
    out[inst] = geometry.exp_map_zero(z) if hc else z
    return out, z


def _batch_step(
    pos: np.ndarray,
    negs: np.ndarray,
    coords: np.ndarray,
    params: ConeParams,
    margin: float,
    feats: np.ndarray | None = None,
    w: np.ndarray | None = None,
) -> tuple[float, float, np.ndarray, np.ndarray | None]:
    """Loss terms and gradients of one batch of graph-row pairs ``(k, 2)``.

    Returns ``(sum_pos E, sum_neg max(0, margin - E), label grad, W grad)``.
    One kernel call scores ``[pos; negs]`` with ``upper`` +inf for the
    positives and ``margin`` for the negatives, so only live rows get a
    gradient: positives with ``E > 0``, negatives with ``0 < E < margin``.
    Over the parts pos-u, pos-v, neg-u, neg-v, in that order, the live rows
    alone are scattered into the label gradient (one ``np.add.at``) and
    back-propagated through ``exp_0``. ``W``'s gradient is then one matmul
    per part over all its instance rows, the dead ones at +0.0, and a part
    with no live instance row is skipped: a matmul over fewer rows regroups
    BLAS's sum (at 512-wide features and batch 1024 it moved the trained
    model's bytes). Each part's instances are likewise embedded by a matmul
    of their own.

    Skipping rows keeps every sum bit-identical: a skipped row's gradient
    holds only +-0.0, every accumulator starts at +0.0, and round-to-nearest
    addition of +-0.0 leaves any value other than -0.0 as it is and never
    turns +0.0 into -0.0. The W grad is None without instances (``w`` None).
    """
    hc = params.kind == "hc"
    parts = (pos[:, 0], pos[:, 1], negs[:, 0], negs[:, 1])
    points, zs = zip(*(_embed_part(nodes, coords, feats, w, hc) for nodes in parts))
    n = len(pos)
    upper = np.concatenate((np.full(n, np.inf), np.full(len(negs), margin)))
    e, gx, gy = geometry.energies_and_gradients(
        np.concatenate(points[0::2]), np.concatenate(points[1::2]), params, upper
    )
    live = geometry.live_rows(e, upper)
    lives = (live[:n], live[:n], live[n:], live[n:])
    grads = (gx[:n], gy[:n], -gx[n:], -gy[n:])
    nodes = np.concatenate([part[at] for part, at in zip(parts, lives)])
    g = np.concatenate([part_g[at] for part_g, at in zip(grads, lives)])
    coords_grad = np.zeros_like(coords)
    w_grad = None
    if w is None:
        np.add.at(coords_grad, nodes, g)
    else:
        lab = nodes < len(coords)
        np.add.at(coords_grad, nodes[lab], g[lab])
        w_grad = np.zeros_like(w)
        for part, z, part_g, at in zip(parts, zs, grads, lives):
            if z is not None:
                inst = part >= len(coords)
                keep = at[inst]  # the live rows among this part's instances
                if keep.any():
                    dz = np.zeros_like(z)
                    g_live = part_g[inst & at]
                    dz[keep] = geometry.exp_map_zero_backprop(z[keep], g_live) if hc else g_live
                    w_grad += feats[part[inst] - len(coords)].T @ dz
    return float(e[:n].sum()), float(np.maximum(0.0, margin - e[n:]).sum()), coords_grad, w_grad


# ---------------------------------------------------------------------------
# Epoch engine
# ---------------------------------------------------------------------------

class _Graph:
    """Integer-encoded training graph: labels first, then ``n_instances`` instances.

    A pair ``(a, b)`` of rows is banned when it is a closure pair, a
    positive or a self-pair, or when both are instances. ``banned`` holds
    the keys ``a * n_total + b`` of those with a label side, for the retry
    loop; ``valid`` and the banned-position CSR serve the exact sampler.
    """

    def __init__(self, h: Hierarchy, positives: np.ndarray, n_instances: int = 0):
        self.n_labels = len(h.ids)
        self.n_total = n = self.n_labels + n_instances
        self.positives = np.asarray(positives, dtype=np.int64).reshape(-1, 2)
        if len(self.positives) and not (0 <= self.positives.min() <= self.positives.max() < n):
            raise ValueError(f"positive rows must lie in [0, {n})")
        # Levels available to the corruption sampler: label levels, then the
        # instance level (lowest) when present.
        self.levels = [np.flatnonzero(h.level_of == l) for l in range(1, h.level_count + 1)]
        if n_instances:
            self.levels.append(np.arange(self.n_labels, n, dtype=np.int64))
        # the banned pairs' keys in key order; instance pairs are banned by rule
        pairs = np.concatenate([h.closure_rows, self.positives])
        keys = np.unique(
            np.concatenate([pairs[:, 0] * n + pairs[:, 1], np.arange(n, dtype=np.int64) * (n + 1)])
        )
        a, b = np.divmod(keys, n)
        label_side = (a < self.n_labels) | (b < self.n_labels)
        self.banned = set(keys[label_side].tolist())
        self._banned_tables(a[label_side], b[label_side])

    def _banned_tables(self, a: np.ndarray, b: np.ndarray) -> None:
        """Valid counts and banned positions per (side, node), from the banned pairs.

        Side 0 corrupts u, so ``node`` is the positive's child v; side 1
        corrupts v, so ``node`` is its parent u. A candidate is banned if it
        forms a banned pair with ``node``, or if both are instances. The
        levels, concatenated, give every node a position (``order[pos]`` is
        the node).

        - ``valid[side, p, node]``: valid candidates in ``levels[p]``.
        - ``banned_ptr``/``banned_key``: a CSR over the slots ``side * n + node``
          of the banned positions, ascending, each stored as the key
          ``slot * (n + 1) + gap`` with ``gap`` the number of non-banned
          positions before it, so that one ``searchsorted`` over all keys
          finds the banned positions below a valid index. Instance-instance
          pairs are banned by rule, not listed: the instance level comes
          last, so they never shift the positions of label candidates.
        """
        n = self.n_total
        self.order = np.concatenate(self.levels)
        pos = np.empty(n, dtype=np.int64)
        pos[self.order] = np.arange(n)
        sizes = np.array([len(pool) for pool in self.levels], dtype=np.int64)
        level_at = np.repeat(np.arange(len(sizes)), sizes)  # level of each position
        inst_per_level = np.array(
            [np.count_nonzero(pool >= self.n_labels) for pool in self.levels], dtype=np.int64
        )
        is_instance = np.arange(n) >= self.n_labels
        self.valid = np.empty((2, len(sizes), n), dtype=np.int64)
        for side, (node, cand) in enumerate(((b, a), (a, b))):
            banned = np.bincount(
                level_at[pos[cand]] * n + node, minlength=len(sizes) * n
            ).reshape(len(sizes), n)
            self.valid[side] = (
                sizes[:, None] - banned - inst_per_level[:, None] * is_instance[None, :]
            )
        # (side * n + node) * n + position of the banned candidate
        slot_pos = np.concatenate([b * n + pos[a], (n + a) * n + pos[b]])
        slot, cand_pos = np.divmod(np.sort(slot_pos), n)
        self.banned_ptr = np.zeros(2 * n + 1, dtype=np.int64)
        np.cumsum(np.bincount(slot, minlength=2 * n), out=self.banned_ptr[1:])
        gap = cand_pos - (np.arange(len(slot)) - self.banned_ptr[slot])
        self.banned_key = slot * (n + 1) + gap


# The engine samples whole batches holding at least this many positives at
# once. Each sampler call pays a fixed cost (the exact sampler's per-slot
# loop, the plain sampler's set-up, fresh per-call arrays). Against 64, the
# `joint` benchmark makes 8 sampler calls per round instead of 116 and its
# wall_s falls by a quarter (BENCH_14.json). The plain sampler holds its
# generator words as uint32 and scans them in fixed-size chunks
# (``_retry_loop``), so a larger span costs no more peak memory per word.
SPAN_POSITIVES = 1024
WORD = 2**32  # ``rng.integers(n)`` reads 32-bit generator words for any n <= 2**32


class _Words:
    """The generator's next 32-bit words, read ahead and then handed back unread.

    ``rng.integers(0, 2**32, size=m, dtype=np.uint32)`` reads exactly the
    words that ``m`` scalar draws read (PCG64 hands out the low half of an
    output, then the high half, which waits in its state). So restoring the
    saved state and re-reading the words used leaves the generator where
    the scalar draws would. The block is held as uint32, 4 bytes per word.
    """

    def __init__(self, rng: np.random.Generator, ahead: int):
        self.rng = rng
        self.state = rng.bit_generator.state
        self.block = self.read(ahead)

    def read(self, m: int) -> np.ndarray:
        return self.rng.integers(0, WORD, size=m, dtype=np.uint32)

    def upto(self, end: int) -> np.ndarray:
        """The block, read on to at least ``end`` words."""
        if end > len(self.block):
            more = max(end - len(self.block), len(self.block))
            self.block = np.concatenate([self.block, self.read(more)])
        return self.block

    def close(self, used: int) -> None:
        self.block = None  # so that the re-read is the only copy
        self.rng.bit_generator.state = self.state
        self.rng.integers(0, WORD, size=used, dtype=np.uint32)


def _retry_loop(graph: _Graph, words: _Words, slots, dup: bool) -> tuple[list[int], int]:
    """The scalar retry loop over ``slots``, run on ``words``: each slot's pick
    (-1 for none) and the number of words read.

    A slot is ``(n, start, fixed, corrupt_u, group, drawing)``; its pool, a
    level, is ``order[start : start + n]``, ``n >= 2``. A draw
    ``rng.integers(n)`` is NumPy's Lemire step on the next word ``w``: the
    index ``(w * n) >> 32``, unless ``(w * n) mod 2**32 < (2**32 - n) mod n``,
    when the word is thrown away and the next one read. A drawing slot draws until a candidate is
    valid, for at most RETRY_CAP draws: not banned (a label side and a key
    outside ``graph.banned``) and, with ``dup``, not drawn before for its
    ``group`` (its positive and side). An empty slot spends its RETRY_CAP
    draws at once: a word each, and one more per word thrown away among
    them. Those are found per pool size, by scanning the block in chunks of
    2**14 words so that the scan's temporaries stay small.
    """
    order, banned = memoryview(graph.order), graph.banned
    n_labels, n_total = graph.n_labels, graph.n_total
    taken: dict[int, set[int]] = {}
    thrown: dict[int, tuple[list[int], int]] = {}  # pool size: thrown positions, end of scan

    def thrown_in(n: int, cut: int, lo: int, hi: int) -> int:
        """Words in ``[lo, hi)`` thrown away for pool size ``n``; ``lo`` never decreases."""
        found, done = thrown.get(n, ([], lo))
        if done < hi:
            block = words.upto(hi)
            for c in range(done, hi, 2**14):
                found += (np.flatnonzero(block[c : c + 2**14] * np.uint32(n) < cut) + c).tolist()
            thrown[n] = found, min(c + 2**14, len(block))
        return bisect.bisect_left(found, hi) - bisect.bisect_left(found, lo)

    block = memoryview(words.block)
    picks = []
    at = 0  # words read
    for n, start, fixed, corrupt_u, group, drawing in slots:
        cut = (WORD - n) % n
        pick = -1
        if not drawing:
            end = at + RETRY_CAP
            while cut and (k := thrown_in(n, cut, at, end)) != end - at - RETRY_CAP:
                end = at + RETRY_CAP + k
            at = end
        else:
            seen = taken.setdefault(group, set()) if dup else ()
            draws = 0
            while draws < RETRY_CAP:
                if at >= len(block):
                    block = memoryview(words.upto(at + 1))
                m = block[at] * n
                at += 1
                if m & (WORD - 1) < cut:
                    continue
                draws += 1
                cand = order[start + (m >> 32)]
                a, b = (cand, fixed) if corrupt_u else (fixed, cand)
                if (
                    (a < n_labels or b < n_labels)
                    and a * n_total + b not in banned
                    and cand not in seen
                ):
                    pick = cand
                    if dup:
                        seen.add(cand)
                    break
        picks.append(pick)
    return picks, at


def _sample_negatives_for(
    graph: _Graph,
    u: np.ndarray,
    v: np.ndarray,
    rng: np.random.Generator,
    config: TrainConfig,
    *,
    counts: np.ndarray | None = None,
) -> np.ndarray:
    """Pick-per-level corruptions ``(k, 2)`` of the positives ``(u[i], v[i])``,
    listed per positive; every other negative mode is
    ``_sample_negatives_rebalanced``'s.

    Per positive: one corruption per (pass, side, level) slot, the first
    valid candidate (not banned, not drawn before for this positive and
    side) of up to RETRY_CAP scalar draws ``rng.integers(len(level))``; the
    slot gives up when none of them is. A slot in which no candidate is
    valid (its ``_Graph.valid`` count is 0) still reads its RETRY_CAP
    draws, so that seeded runs replay byte for byte; a one-member level's
    draws read no words. The loop runs on one block of generator words per
    call (``_retry_loop``), with validity from ``_Graph.banned``, and the
    generator is left where the scalar draws would leave it.

    Called on the positives of several batches at once, it returns the
    concatenation of per-batch calls and leaves the same stream.
    ``counts[i]``, if given, is set to the number of pairs of positive ``i``.
    """
    if not len(u):
        if counts is not None:
            counts[:] = 0
        return np.zeros((0, 2), dtype=np.int64)
    sizes = np.array([len(level) for level in graph.levels], dtype=np.int64)
    starts = np.cumsum(sizes) - sizes
    # one positive's slots in loop order (pass, side, pool)
    t, side, p = np.indices((config.neg_passes, 2, len(sizes))).reshape(3, -1)
    first = t == 0
    # (positive, slot) arrays, positives in call order
    fixed = np.where(side == 0, v[:, None], u[:, None])
    empty = graph.valid[side, p, fixed] == 0
    size = sizes[p]
    # a one-member pool's valid member, taken in the first pass; later ones repeat it
    got = np.where(~empty & (size == 1) & first, graph.order[starts[p]], -1)
    # the slots of larger pools read words: RETRY_CAP draws if empty, else until one is valid
    pos, slot = np.nonzero(np.broadcast_to(size > 1, got.shape))
    if len(pos):
        drawing = ~empty[pos, slot]
        words = _Words(rng, int(np.where(drawing, 1.5, RETRY_CAP).sum()))
        columns = (size[slot], starts[p[slot]], fixed[pos, slot], side[slot] == 0,
                   2 * pos + side[slot], drawing)  # group: the positive and side
        dup = config.neg_passes > 1  # a later pass may draw a candidate again
        picks, used = _retry_loop(graph, words, zip(*map(memoryview, columns)), dup)
        words.close(used)
        got[pos, slot] = picks
    keep = got >= 0
    if counts is not None:
        counts[:] = keep.sum(axis=1)
    corrupt_u = side == 0
    return np.stack(
        [np.where(corrupt_u, got, fixed)[keep], np.where(corrupt_u, fixed, got)[keep]], axis=1
    )


def _sample_negatives_rebalanced(
    graph: _Graph,
    u: np.ndarray,
    v: np.ndarray,
    rng: np.random.Generator,
    config: TrainConfig,
    *,
    counts: np.ndarray | None = None,
) -> np.ndarray:
    """Corruptions ``(k, 2)`` drawn exactly from a proposal's valid candidates:
    every negative mode but pick-per-level (``_sample_negatives_for``).

    The proposal is rebalanced when ``config.rebalance_images`` is set and
    the graph holds instances: the instance pool (the last level) with
    probability 1/2, else one of the L label levels with 1/(2L), then a
    uniform member. Otherwise it is uniform over all nodes (uniform
    negatives). Each side of a positive has one slot per level and pass.
    Each slot takes one draw from what a rejection loop over the proposal
    accepts: a level with weight (proposal probability / level size) x its
    valid candidates not yet drawn for this positive, then a uniform one of
    those, found by index arithmetic over the banned positions. A side stops
    once no valid candidate is left.

    Rows are the (positive, side) pairs, each slot one step over all of
    them with the arithmetic of a per-positive loop: the total mass is a
    left-to-right ``cumsum`` (as Python 3.11's ``sum``), the level a
    subtract-and-compare chain. Pairs are listed per positive, side 0 first,
    so a call on several batches' positives is the concatenation of
    per-batch calls. ``counts[i]``, if given, is set to the number of pairs
    of positive ``i``.
    """
    levels = graph.levels
    if config.rebalance_images and graph.n_total > graph.n_labels:
        props = [0.5 / (len(levels) - 1)] * (len(levels) - 1) + [0.5]
        unit = np.array([prop / len(pool) for prop, pool in zip(props, levels)])
    else:
        unit = np.full(len(levels), 1.0 / graph.n_total)
    slots = len(levels) * config.neg_passes
    n = graph.n_total
    side = np.tile([0, 1], len(u))
    fixed = np.stack([v, u], axis=1).ravel()  # side 0 corrupts u, so it is keyed by v
    draws = rng.random(2 * slots * len(u)).reshape(-1, slots)
    valid = graph.valid[side, :, fixed]
    slot_of = side * n + fixed
    seen = np.empty((len(side), slots), dtype=np.int64)  # drawn valid indices, ascending
    drawn = np.full((len(side), slots), -1, dtype=np.int64)
    live = np.arange(len(side))  # rows with a valid candidate left
    for t in range(slots):
        masses = valid * unit
        total = np.cumsum(masses, axis=1)[:, -1]
        if not np.all(total > 0.0):
            keep = total > 0.0
            live, valid, seen, draws, slot_of, masses, total = (
                a[keep] for a in (live, valid, seen, draws, slot_of, masses, total)
            )
        x = draws[:, t] * total
        p = np.full(len(live), -1)
        for level in range(len(levels)):
            p[(p < 0) & (x < masses[:, level])] = level
            x = np.where(p < 0, x - masses[:, level], x)
        row = np.arange(len(live))
        over = p < 0  # rounding carried x past the last mass: take the last candidate
        if over.any():
            p[over] = len(levels) - 1 - np.argmax(masses[over, ::-1] != 0, axis=1)
            x[over] = masses[row[over], p[over]]
        k = (np.cumsum(valid, axis=1) - valid)[row, p] + np.minimum(
            (x / unit[p]).astype(np.int64), valid[row, p] - 1
        )
        for j in range(t):  # the k-th valid index not yet drawn
            k += seen[:, j] <= k
        seen[:, t] = k
        seen[:, : t + 1].sort(axis=1)
        valid[row, p] -= 1
        key = slot_of * (n + 1) + k
        below = np.searchsorted(graph.banned_key, key, side="right") - graph.banned_ptr[slot_of]
        drawn[live, t] = graph.order[k + below]
    got = drawn >= 0
    if counts is not None:
        counts[:] = got.reshape(len(u), 2 * slots).sum(axis=1)
    corrupt_u = (side == 0)[:, None]
    first = np.where(corrupt_u, drawn, fixed[:, None])[got]
    second = np.where(corrupt_u, fixed[:, None], drawn)[got]
    return np.stack([first, second], axis=1)


def train_graph_embedding(
    h: Hierarchy,
    positives: np.ndarray,
    config: TrainConfig,
    *,
    features: np.ndarray | None = None,
    init_coords: np.ndarray | None = None,
    epoch_hook: Callable[[np.ndarray, np.ndarray | None], dict] | None = None,
) -> tuple[np.ndarray, np.ndarray | None, list[dict]]:
    """Shared epoch engine; returns (label coords, linear map or None, log).

    The graph holds one point per label plus one node per row of
    ``features``, instance ``i`` embedded as ``features[i] @ W`` (wrapped
    in ``exp_0`` on the ball); ``positives`` are graph rows. Labels are
    optimized directly (Adam or RSGD + projection); ``W`` is always
    optimized with Adam at ``config.lr_instances``.

    Each epoch walks a permutation of the positives in batches. The sampler
    is called once per span, the fewest whole batches holding at least
    ``SPAN_POSITIVES`` positives (one batch at ``batch_size >= 1024``); it
    fills a per-positive count array, sized to the smaller of the span and
    the positives, and each batch takes its negatives
    from that array's cumsum. The negatives do not depend on the updates,
    and nothing else draws from the generator between batches (the
    optimizer step projects with a fixed generator), so a span call gives
    the pairs and the stream of per-batch calls. Each batch is then one
    ``_batch_step`` and one optimizer step; errors name the batch.

    ``neg_passes`` may not exceed the largest candidate pool: the largest
    level under pick-per-level, else all graph nodes.
    """
    params = config.cone_params()
    rng = np.random.default_rng(config.seed)
    # no instances: no map either, so that the rng stream is the label-only one
    feats = np.asarray(features, dtype=float) if features is not None and len(features) else None
    graph = _Graph(h, positives, 0 if feats is None else len(feats))
    rebalance = config.rebalance_images and feats is not None
    # past the largest pool, some pass of every pool finds no distinct
    # negative; under pick-per-level each such slot still reads RETRY_CAP draws
    exact = rebalance or not config.pick_per_level
    pool = graph.n_total if exact else max(len(level) for level in graph.levels)
    if config.neg_passes > pool:
        raise ValueError(
            f"neg_passes {config.neg_passes} exceeds the largest candidate pool, "
            f"{pool} nodes: no pool holds a distinct negative for every pass"
        )

    if init_coords is not None:
        coords = np.array(init_coords, dtype=float)
        if coords.shape != (graph.n_labels, config.dim):
            raise ValueError(
                f"init coords shape {coords.shape} != {(graph.n_labels, config.dim)}"
            )
        coords = geometry.project_rows(coords, params, rng)
    else:
        coords = geometry.project_rows(
            random_coords(graph.n_labels, config.dim, params, rng, config.init_norm_hi),
            params,
            rng,
        )

    w = None if feats is None else rng.standard_normal((feats.shape[1], config.dim)) * 0.01

    adam_labels = AdamState.like(coords) if config.optimizer == "adam" else None
    adam_w = AdamState.like(w) if w is not None else None

    sampler = _sample_negatives_rebalanced if exact else _sample_negatives_for

    history: list[dict] = []
    n_pos = len(graph.positives)
    size = config.batch_size
    span = -(-SPAN_POSITIVES // size) * size  # positives per sampler call
    counts = np.empty(min(span, n_pos), dtype=np.int64)
    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(n_pos) if n_pos else np.array([], dtype=np.int64)
        epoch_loss = 0.0
        for first in range(0, n_pos, span):
            pos = graph.positives[order[first : first + span]]
            k = len(pos)
            negs = sampler(graph, pos[:, 0], pos[:, 1], rng, config, counts=counts[:k])
            ends = [0, *np.cumsum(counts[:k]).tolist()]  # negatives of positives [0, i): [0, ends[i])
            for start in range(0, k, size):
                stop = min(start + size, k)
                pos_loss, neg_loss, coords_grad, w_grad = _batch_step(
                    pos[start:stop], negs[ends[start] : ends[stop]],
                    coords, params, config.margin, feats, w,
                )
                epoch_loss += pos_loss
                epoch_loss += neg_loss

                where = f"epoch {epoch}, batch {(first + start) // size + 1}"
                if not np.isfinite(epoch_loss):
                    raise TrainingError(f"loss diverged at {where}")
                try:
                    coords = optimizer_step(coords, coords_grad, adam_labels, config)
                except TrainingError as exc:
                    raise TrainingError(f"{exc} at {where}") from None
                if w is not None:
                    if not np.all(np.isfinite(w_grad)):
                        raise TrainingError(f"non-finite gradient for the linear map at {where}")
                    w = adam_step(w, w_grad, adam_w, config.lr_instances)
        row = {"epoch": epoch, "loss": epoch_loss}
        if epoch_hook is not None:
            row.update(epoch_hook(coords, w))
        history.append(row)
    return coords, w, history


# ---------------------------------------------------------------------------
# Label-only training and edge prediction
# ---------------------------------------------------------------------------

def train_label_embeddings(
    h: Hierarchy,
    split: SplitResult,
    config: TrainConfig,
    init_coords: np.ndarray | None = None,
) -> tuple[EmbeddingTable, list[dict]]:
    """Fit the label hierarchy alone from the split's train edges.

    ``init_coords`` (rows in sorted node-id order) overrides the seeded
    random initialization.
    """
    params = config.cone_params()
    can_eval = len(split.val) > 0 and len(split.val_negatives) > 0

    def hook(coords: np.ndarray, _w) -> dict:
        if not can_eval:
            return {"val_f1": "", "threshold": ""}
        table = EmbeddingTable(h.ids, coords, params)
        res = evaluate_edge_prediction(table, split.val, split.val_negatives)
        return {"val_f1": res.f1, "threshold": res.threshold}

    if split.train.ids != h.ids:
        raise ValueError("the split's edges are over another hierarchy's labels")
    coords, _, history = train_graph_embedding(
        h, split.train.rows, config, init_coords=init_coords, epoch_hook=hook
    )
    return EmbeddingTable(h.ids, coords, params), history


def pair_energies(emb: EmbeddingTable, edges: EdgeSet) -> np.ndarray:
    """The energy of each pair of ``edges``; a ``ValueError`` names the labels of
    ``edges.ids`` that ``emb`` lacks."""
    rows = emb.rows(edges.ids)[edges.rows]
    return geometry.energies(emb.coords[rows[:, 0]], emb.coords[rows[:, 1]], emb.params)


@dataclass(frozen=True)
class EdgePredictionResult:
    threshold: float
    precision: float
    recall: float
    f1: float
    accuracy: float


def _best_threshold(pos_e: np.ndarray, neg_e: np.ndarray) -> EdgePredictionResult:
    """Metrics at the first best-F1 threshold of ``_sweep``; F1 as ``_metrics_at`` computes it."""
    candidates, p, r = _sweep(pos_e, neg_e)
    den = p + r
    f1 = np.divide(2 * p * r, den, out=np.zeros(len(den)), where=den > 0)
    return _metrics_at(pos_e, neg_e, float(candidates[np.argmax(f1)]))


def _sweep(pos_e: np.ndarray, neg_e: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Candidate thresholds (min - 1, the midpoints of adjacent distinct energies,
    the max) and the precision and recall of ``E <= t`` at each, from one sort."""
    ordered = np.sort(np.concatenate([pos_e, neg_e]))
    t = ordered[np.append(True, ordered[1:] != ordered[:-1])]
    t = np.concatenate([[t[0] - 1.0], 0.5 * (t[:-1] + t[1:]), [t[-1]]])
    # a midpoint of adjacent doubles can round to the upper one: count at t itself
    k = np.searchsorted(ordered, t, side="right")
    tp = np.searchsorted(np.sort(pos_e), t, side="right")
    p = np.divide(tp, k, out=np.zeros(len(t)), where=k > 0)
    r = tp / len(pos_e) if len(pos_e) else np.zeros(len(t))
    return t, p, r


def _confusion_at(pos_e: np.ndarray, neg_e: np.ndarray, t: float) -> ConfusionCounts:
    """Confusion counts of classifying ``E <= t`` as positive."""
    tp = int(np.count_nonzero(pos_e <= t))
    fp = int(np.count_nonzero(neg_e <= t))
    return ConfusionCounts(tp=tp, fp=fp, tn=len(neg_e) - fp, fn=len(pos_e) - tp)


def _metrics_at(pos_e: np.ndarray, neg_e: np.ndarray, t: float) -> EdgePredictionResult:
    """Metrics of classifying ``E <= t`` as positive."""
    counts = _confusion_at(pos_e, neg_e, t)
    return EdgePredictionResult(t, *precision_recall_f1(counts), accuracy(counts))


def evaluate_edge_prediction(
    emb: EmbeddingTable, positives: EdgeSet, negatives: EdgeSet
) -> EdgePredictionResult:
    """Best-F1 threshold over the pooled energy multiset (classify E <= t)."""
    if not len(positives) or not len(negatives):
        raise ValueError("edge prediction needs non-empty positive and negative sets")
    return _best_threshold(pair_energies(emb, positives), pair_energies(emb, negatives))


def edge_prediction_at_threshold(
    emb: EmbeddingTable, positives: EdgeSet, negatives: EdgeSet, threshold: float
) -> EdgePredictionResult:
    """Metrics of a fixed, externally chosen threshold (e.g. from val)."""
    if not len(positives) or not len(negatives):
        raise ValueError("edge prediction needs non-empty positive and negative sets")
    return _metrics_at(pair_energies(emb, positives), pair_energies(emb, negatives), threshold)
