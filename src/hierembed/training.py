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
corrupt-v), skipping corruptions that are true pairs. The engine calls the
sampler once per span (the fewest whole consecutive batches holding at
least ``SPAN_POSITIVES`` = 1024 positives, or all that are left), with the
span's parent and child rows; it returns the pairs the per-positive draws
would give, in the same order and from the same random stream, and how many
fall to each positive, so the engine cuts them into batches. Each batch
then takes one kernel call and one gradient scatter (``_batch_step``). The
plain sampler's memory per call is bounded per generator word it reads
(``_PlainWalk.run``), so a larger span costs no more peak memory.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import geometry
from .geometry import ConeParams
from .hierarchy import RETRY_CAP, EdgeSet, Hierarchy, SplitResult


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


def name_some(names: Sequence[str], shown: int = 5) -> str:
    """The first ``shown`` names, quoted, and how many more there are."""
    more = f" and {len(names) - shown} more" if len(names) > shown else ""
    return ", ".join(repr(name) for name in names[:shown]) + more


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

    def row(self, node_id: str) -> int:
        return self._row[node_id]

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

    def pair_rows(self, pairs: Sequence[tuple[str, str]]) -> np.ndarray:
        """Rows ``(k, 2)`` of label pairs, by :meth:`rows`."""
        return self.rows([nid for pair in pairs for nid in pair]).reshape(-1, 2)

    def point(self, node_id: str) -> np.ndarray:
        return self.coords[self._row[node_id]]

    @property
    def dim(self) -> int:
        return int(self.coords.shape[1])


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
    state.t += 1
    state.m = beta1 * state.m + (1.0 - beta1) * grad
    state.v = beta2 * state.v + (1.0 - beta2) * grad * grad
    mhat = state.m / (1.0 - beta1**state.t)
    vhat = state.v / (1.0 - beta2**state.t)
    return param - lr * mhat / (np.sqrt(vhat) + eps)


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

    Returns ``(sum_pos E, sum_neg max(0, margin - E), label grad, W grad)``;
    the hinge's gradient is zero where it is flat (``E >= margin``). One
    kernel call scores ``[pos; negs]``. Label gradients scatter in one
    ``np.add.at`` over the parts in the order pos-u, pos-v, neg-u, neg-v;
    ``W``'s accumulate part by part in that order, each part's instances
    mapped by a matmul of their own (a matmul over the rows of all parts
    rounds differently). The W grad is None without instances (``w`` None).
    """
    hc = params.kind == "hc"
    parts = (pos[:, 0], pos[:, 1], negs[:, 0], negs[:, 1])
    points, zs = zip(*(_embed_part(nodes, coords, feats, w, hc) for nodes in parts))
    e, gx, gy = geometry.energies_and_gradients(
        np.concatenate(points[0::2]), np.concatenate(points[1::2]), params
    )
    n = len(pos)
    e_neg = e[n:]
    active = (e_neg < margin)[:, None]
    grads = (gx[:n], gy[:n], np.where(active, -gx[n:], 0.0), np.where(active, -gy[n:], 0.0))
    nodes, g = np.concatenate(parts), np.concatenate(grads)
    coords_grad = np.zeros_like(coords)
    w_grad = None
    if w is None:
        np.add.at(coords_grad, nodes, g)
    else:
        lab = nodes < len(coords)
        np.add.at(coords_grad, nodes[lab], g[lab])
        w_grad = np.zeros_like(w)
        for part, z, part_g in zip(parts, zs, grads):
            if z is not None:
                inst = part >= len(coords)
                dz = geometry.exp_map_zero_backprop(z, part_g[inst]) if hc else part_g[inst]
                w_grad += feats[part[inst] - len(coords)].T @ dz
    return float(e[:n].sum()), float(np.maximum(0.0, margin - e_neg).sum()), coords_grad, w_grad


def max_margin_loss(
    positives: Sequence[tuple[str, str]],
    negatives: Sequence[tuple[str, str]],
    emb: EmbeddingTable,
    margin: float,
) -> tuple[float, np.ndarray]:
    """Hinge loss over edge sets with gradients accumulated per node row (one batch step)."""
    pos_loss, neg_loss, grad, _ = _batch_step(
        emb.pair_rows(positives), emb.pair_rows(negatives), emb.coords, emb.params, margin
    )
    return pos_loss + neg_loss, grad


# ---------------------------------------------------------------------------
# Epoch engine
# ---------------------------------------------------------------------------

class _Graph:
    """Integer-encoded training graph: labels first, then ``n_instances`` instances."""

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
        # the banned pairs: closure pairs, positives and self-pairs, in key order
        pairs = np.concatenate([h.closure_rows, self.positives])
        keys = np.unique(
            np.concatenate([pairs[:, 0] * n + pairs[:, 1], np.arange(n, dtype=np.int64) * (n + 1)])
        )
        a, b = np.divmod(keys, n)
        self._banned_tables(a, b)
        self._ancestor_table(h, a, b)
        # Candidate pools of ``_sample_negatives_for``, keyed by pick_per_level:
        # one pool per level, or every level's slot drawing from all nodes.
        # ``empty[side, p, node]``: no candidate in ``pools[p]`` is a valid
        # negative. The levels partition the nodes, so the all-nodes pool's
        # valid count is the sum over levels.
        self.pools = {True: self.levels, False: [self.order] * len(self.levels)}
        none_valid = self.valid.sum(axis=1, keepdims=True) == 0
        self.empty = {
            True: self.valid == 0,
            False: np.repeat(none_valid, len(self.levels), axis=1),
        }

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
        keep = (a < self.n_labels) | (b < self.n_labels)
        a, b = a[keep], b[keep]
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

    def _ancestor_table(self, h: Hierarchy, a: np.ndarray, b: np.ndarray) -> None:
        """Banned pairs ``(a, b)`` as one lookup: ``anc[b, col[a]] == a``.

        ``col[x]`` is x's level less one, and ``h.level_count`` for
        instances. A label's row is its ``Hierarchy.anc`` row, so a label is
        banned with itself and its descendants. An instance's row holds
        itself in the instance column and, in each label column, a label it
        is banned with. Instance-instance pairs are banned by rule. The
        banned pairs the table cannot hold (a second label of one level for
        an instance, label-label positives outside the closure, pairs with
        an instance first) are the sorted keys ``a * n_total + b`` of
        ``extra_keys``.
        """
        n_levels, n_labels = h.level_count, self.n_labels
        self.col = np.full(self.n_total, n_levels, dtype=np.int64)
        self.col[:n_labels] = h.level_of - 1
        anc = np.full((self.n_total, n_levels + 1), -1, dtype=np.int64)
        anc[:n_labels, :n_levels] = h.anc
        anc[n_labels:, n_levels] = np.arange(n_labels, self.n_total)
        to_instance = (a < n_labels) & (b >= n_labels)
        cell = b[to_instance] * (n_levels + 1) + self.col[a[to_instance]]
        cell, first = np.unique(cell, return_index=True)  # the lowest key of each cell
        anc.ravel()[cell] = a[to_instance][first]
        held = (anc[b, self.col[a]] == a) | ((a >= n_labels) & (b >= n_labels))
        self.anc = anc
        self.extra_keys = a[~held] * self.n_total + b[~held]


# The engine samples whole batches holding at least this many positives at
# once. Each sampler call pays a fixed cost (the rebalanced sampler's
# per-slot loop, the plain walk's set-up, fresh per-call arrays). Against
# 64, the `joint` benchmark makes 8 sampler calls per round instead of 116
# and its wall_s falls by a quarter (BENCH_14.json). A call's memory grows
# with the generator words it reads, which this span raised 18 % in peak RSS
# until the plain walk held them as uint32 and checked empty slots in blocks
# (``_first_thrown``); with that, peak RSS is within 3 % of the 64 span.
SPAN_POSITIVES = 1024
WORD = 2**32  # ``rng.integers(n)`` reads 32-bit generator words for any n <= 2**32
# Drawing slots are judged in chunks of CHUNK_ROWS (all the call has left,
# when that is under twice as many), each against a window of WINDOW words.
CHUNK_ROWS = 64
WINDOW = 16
_COLS = np.arange(WINDOW)
_ROWS = np.arange(2 * CHUNK_ROWS)[:, None]
_SPAN = np.arange(RETRY_CAP)
SPENT_BLOCK = 64  # empty slots whose words are checked for throw-aways at once


def _lemire(words: np.ndarray, n: int | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """What ``rng.integers(n)`` makes of each 32-bit word: ``(index, thrown_away)``.

    NumPy's Lemire step maps a word ``w`` to ``(w * n) >> 32``; it throws
    the word away and reads the next one when ``(w * n) mod 2**32`` falls
    below ``(2**32 - n) mod n``. ``n`` broadcasts against ``words``.
    """
    n = np.asarray(n, dtype=np.uint64)
    m = np.asarray(words, dtype=np.uint64) * n
    return (m >> np.uint64(32)).view(np.int64), (m & np.uint64(WORD - 1)) < (WORD - n) % n


def _scan(ok: np.ndarray, thrown: np.ndarray) -> tuple[int, int] | None:
    """``(index, words used)`` of the first accepted word within RETRY_CAP draws.

    The index is -1 when the draws run out first, and the result None when
    the words do. Thrown-away words are read but are no draws.
    """
    draws = np.cumsum(~thrown)
    hit = np.flatnonzero(ok & (draws <= RETRY_CAP))
    if hit.size:
        return int(hit[0]), int(hit[0]) + 1
    if draws[-1] >= RETRY_CAP:
        return -1, int(np.searchsorted(draws, RETRY_CAP)) + 1
    return None


def _first_thrown(words: np.ndarray, at: np.ndarray, n: np.ndarray) -> int:
    """Position in ``at`` of the first empty slot whose RETRY_CAP words from
    ``at`` hold a throw-away of the Lemire step for its pool size ``n``; -1 if
    none does.

    The slots are checked SPENT_BLOCK at a time, up to the first block with
    a hit.
    """
    for lo in range(0, len(at), SPENT_BLOCK):
        block = slice(lo, lo + SPENT_BLOCK)
        _, thrown = _lemire(words[at[block, None] + _SPAN], n[block, None])
        hit = np.flatnonzero(thrown.any(axis=1))
        if hit.size:
            return lo + int(hit[0])
    return -1


class _Words:
    """The generator's next 32-bit words, read ahead and then handed back unread.

    ``rng.integers(0, 2**32, size=m, dtype=np.uint32)`` reads exactly the
    words that ``m`` scalar draws read (PCG64 hands out the low half of an
    output, then the high half, which waits in its state). So restoring the
    saved state and re-reading the words used leaves the generator where
    the scalar draws would. The block is held as uint32, 4 bytes per word;
    ``_lemire`` widens what it reads to uint64.
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


class _PlainWalk:
    """The draws of ``_sample_negatives_for``'s scalar loop, computed from one block of words.

    Drawing rows are the slots with a valid candidate in a pool of two or
    more; each reads words until one gives a valid candidate, for at most
    RETRY_CAP draws. Empty slots (pool of two or more, nothing valid) read
    RETRY_CAP draws. Row ``r`` starts at word ``nominal[r] + drift``, where
    ``nominal`` counts one word per earlier row and RETRY_CAP per earlier
    empty slot, and ``drift`` counts the words read beyond that; it never
    decreases. A chunk of rows is judged against a window of ``WINDOW``
    drifts at once, so while rows accept at once they walk one diagonal of
    that matrix; the Python loop only steps through rejections.

    An empty slot reads more than RETRY_CAP words only when the Lemire step
    throws some away. That is checked once the walk is done (``run``); if
    it happened, the walk is redone from that slot on, which now adds them.
    """

    def __init__(
        self, graph: _Graph, words: _Words, rows: dict, spent: dict, total: int, dup: bool
    ):
        self.graph = graph
        self.words = words
        self.row = rows  # n, start, fixed, corrupt_u, nominal, group
        self.spent = spent  # n, nominal, before: drawing rows ahead of each empty slot
        self.total = total  # words read if every row accepts its first draw
        self.after = np.zeros(len(rows["n"]) + 1, dtype=np.int64)  # drift once row r - 1 is done
        self.extra: dict[int, int] = {}  # empty slot -> thrown-away words it reads
        self.got = np.full(len(rows["n"]), -1, dtype=np.int64)
        self.taken: dict[int, set[int]] | None = {} if dup else None

    def judge(self, rows: slice, w: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Candidates of ``rows`` from their words ``w``, which are valid, which thrown away."""
        g, row = self.graph, self.row
        idx, thrown = _lemire(w, row["n"][rows, None])
        cand = g.order[row["start"][rows, None] + idx]
        fixed, corrupt_u = row["fixed"][rows, None], row["corrupt_u"][rows, None]
        a = np.where(corrupt_u, cand, fixed)
        b = np.where(corrupt_u, fixed, cand)
        bad = thrown | (g.anc[b, g.col[a]] == a)
        if g.n_total > g.n_labels:
            bad |= (a >= g.n_labels) & (b >= g.n_labels)
        if len(g.extra_keys):
            key = a * g.n_total + b
            at = np.minimum(np.searchsorted(g.extra_keys, key), len(g.extra_keys) - 1)
            bad |= g.extra_keys[at] == key
        return cand, ~bad, thrown

    def alone(self, r: int, start: int) -> int:
        """Resolve row ``r`` from word ``start`` draw by draw; the words it reads."""
        taken = None
        if self.taken is not None:
            taken = self.taken.setdefault(int(self.row["group"][r]), set())
        m = RETRY_CAP + WINDOW
        while True:
            w = self.words.upto(start + m)[None, start : start + m]
            cand, ok, thrown = (x[0] for x in self.judge(slice(r, r + 1), w))
            if taken:
                ok &= ~np.isin(cand, list(taken))
            found = _scan(ok, thrown)
            if found is not None:
                t, used = found
                if t >= 0:
                    self.got[r] = cand[t]
                    if taken is not None:
                        taken.add(int(cand[t]))
                return used
            m *= 2

    def spend_words(self, e: int, start: int) -> int:
        """Words empty slot ``e`` reads from word ``start``, thrown-away ones included."""
        n, m = int(self.spent["n"][e]), RETRY_CAP + WINDOW
        while True:
            _, thrown = _lemire(self.words.upto(start + m)[start : start + m], n)
            found = _scan(np.zeros(m, dtype=bool), thrown)
            if found is not None:
                return found[1]
            m *= 2

    def chunk(self, r: int, stop: int, drift: int) -> tuple[int, int, bool]:
        """Walk rows from ``r`` (before ``stop``) while they accept inside the window.

        Returns the next row, its drift, and whether that row is to be
        resolved alone: it accepted nothing in a full window.
        """
        k = stop - r if stop - r < 2 * CHUNK_ROWS else CHUNK_ROWS
        rows = slice(r, r + k)
        offs = self.row["nominal"][rows, None] + (drift + _COLS)
        w = self.words.upto(int(offs[-1, -1]) + 1)[offs]
        cand, ok, _ = self.judge(rows, w)
        # next accepting column of each row, next rejecting row of each column
        nacc = np.minimum.accumulate(np.where(ok, _COLS, WINDOW)[:, ::-1], axis=1)[:, ::-1]
        nrej = np.minimum.accumulate(np.where(ok, k, _ROWS[:k])[::-1], axis=0)[::-1]
        col = [0] * k  # each row's accepting column
        groups = None if self.taken is None else self.row["group"][rows].tolist()
        i = d = 0
        full = False
        while i < k:
            j = int(nrej[i, d])  # rows i..j-1 accept at column d
            if groups:
                j = i + self.fresh(groups[i:j], cand[i:j, d].tolist())
            col[i:j] = [d] * (j - i)
            i = j
            if i == k:
                break
            # row i, which starts at column d, rejects it: its next valid
            # column whose candidate is not a repeat
            d2 = int(nacc[i, d])
            if groups:
                while d2 < WINDOW and not self.fresh(groups[i : i + 1], [int(cand[i, d2])]):
                    d2 = int(nacc[i, d2 + 1]) if d2 + 1 < WINDOW else WINDOW
            if d2 == WINDOW:
                full = d == 0
                break
            col[i] = d = d2
            i += 1
        self.got[r : r + i] = cand[_ROWS[:i, 0], col[:i]]
        self.after[r + 1 : r + i + 1] = np.add(col[:i], drift)
        return r + i, drift + (col[i - 1] if i else 0), full

    def fresh(self, groups: list[int], picked: list[int]) -> int:
        """The number of leading candidates in ``picked`` not yet drawn for their
        positive and side (``groups``), which are marked drawn; the first
        repeat stops the count."""
        for q, (g, c) in enumerate(zip(groups, picked)):
            seen = self.taken.setdefault(g, set())
            if c in seen:
                return q
            seen.add(c)
        return len(picked)

    def walk(self, r: int, drift: int) -> int:
        """Walk from row ``r`` at ``drift`` to the end; the final drift."""
        n_rows = len(self.row["n"])
        before = self.spent["before"]
        bumps: dict[int, int] = {}  # row -> thrown-away words of the empty slots just before it
        for e, extra in self.extra.items():
            bumps[int(before[e])] = bumps.get(int(before[e]), 0) + extra
        while True:
            self.after[r] = drift
            drift += bumps.get(r, 0)
            if r == n_rows:
                return drift
            stop = min((b for b in bumps if b > r), default=n_rows)
            while r < stop:
                r, drift, full = self.chunk(r, stop, drift)
                if full:
                    drift += self.alone(r, int(self.row["nominal"][r]) + drift) - 1
                    r += 1
                    self.after[r] = drift

    def run(self) -> int:
        """Fill ``got`` and return the words read in all.

        After each walk the empty slots not yet known to be clean are checked
        for thrown-away words SPENT_BLOCK slots at a time (``_first_thrown``),
        up to the first block with one, so the check's arrays have a fixed
        size. With the uint32 block of ``_Words``, a call's tracemalloc peak
        is about 10 bytes per word read on 1024-positive spans of the
        ``joint`` benchmark's graph, where empty slots read most words.
        """
        spent = self.spent
        r = drift = checked = 0
        while True:
            drift = self.walk(r, drift)
            # first word of each empty slot: the drift after the row before it,
            # plus the thrown-away words of empty slots between that row and it
            at = spent["nominal"] + self.after[spent["before"]]
            for e, extra in self.extra.items():
                at[e + 1 :][spent["before"][e + 1 :] == spent["before"][e]] += extra
            unknown = np.arange(checked, len(at))
            if self.extra:
                unknown = unknown[[e not in self.extra for e in unknown.tolist()]]
            words = self.words.upto(int(at.max(initial=0)) + RETRY_CAP)
            hit = _first_thrown(words, at[unknown], spent["n"][unknown])
            if hit < 0:
                return self.total + drift
            e = int(unknown[hit])
            self.extra = {s: x for s, x in self.extra.items() if s < e}
            self.extra[e] = self.spend_words(e, int(at[e])) - RETRY_CAP
            checked = e + 1
            r = int(spent["before"][e])
            drift = int(self.after[r])
            self.got[r:] = -1
            if self.taken is not None:
                self.taken = {}
                drawn = self.got[:r] >= 0
                self.fresh(self.row["group"][:r][drawn].tolist(), self.got[:r][drawn].tolist())


@functools.lru_cache(maxsize=None)
def _slot_pattern(n_pools: int, passes: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Side, pool and first-pass flag of one positive's slots, in loop order (pass, side, pool)."""
    t, side, p = np.indices((passes, 2, n_pools)).reshape(3, -1)
    first = t == 0
    for a in (side, p, first):
        a.setflags(write=False)
    return side, p, first


def _sample_negatives_for(
    graph: _Graph,
    u: np.ndarray,
    v: np.ndarray,
    rng: np.random.Generator,
    config: TrainConfig,
    *,
    counts: np.ndarray | None = None,
) -> np.ndarray:
    """Corruptions ``(k, 2)`` of the positives ``(u[i], v[i])``, listed per positive.

    Per positive: one corruption per (pass, side, pool) slot, the first
    valid candidate (not banned, not drawn before for this positive) of up
    to RETRY_CAP scalar draws ``rng.integers(len(pool))``; the slot gives
    up when none of them is. A slot in which no candidate is valid
    (``_Graph.empty``) still reads its RETRY_CAP draws, so that seeded runs
    replay byte for byte; a one-member pool's draws read no words. The
    draws are computed from one block of generator words per call
    (``_PlainWalk``), validity from the ancestor table, and the generator
    is left where the scalar loop would leave it.

    Called on the positives of several batches at once, it returns the
    concatenation of per-batch calls and leaves the same stream.
    ``counts[i]``, if given, is set to the number of pairs of positive ``i``.
    """
    ppl = config.pick_per_level
    pools = graph.pools[ppl]
    if not len(u) or not pools:
        if counts is not None:
            counts[:] = 0
        return np.zeros((0, 2), dtype=np.int64)
    sizes = np.array([len(pool) for pool in pools], dtype=np.int64)
    starts = np.cumsum(sizes) - sizes if ppl else np.zeros_like(sizes)
    sizes_u = sizes.astype(np.uint64)
    side, p, first = _slot_pattern(len(pools), config.neg_passes)
    # (positive, slot) arrays, positives in call order
    fixed = np.where(side == 0, v[:, None], u[:, None])
    empty = graph.empty[ppl][side, p, fixed]
    size = sizes[p]
    drawing = ~empty & (size > 1)
    spent = empty & (size > 1)
    # a one-member pool's valid member, taken in the first pass; later ones repeat it
    got = np.where(~empty & (size == 1) & first, graph.order[starts[p]], -1)
    reads = np.where(spent, RETRY_CAP, drawing).ravel()
    total = int(reads.sum())
    if total:
        nominal = np.cumsum(reads) - reads
        rows, gaps = np.flatnonzero(drawing), np.flatnonzero(spent)
        pos, slot = np.divmod(rows, len(side))
        words = _Words(rng, total + len(rows) // 2 + WINDOW)
        walk = _PlainWalk(
            graph,
            words,
            {
                "n": sizes_u[p[slot]],
                "start": starts[p[slot]],
                "fixed": fixed.ravel()[rows],
                "corrupt_u": side[slot] == 0,
                "nominal": nominal[rows],
                "group": 2 * pos + side[slot],
            },
            {
                "n": sizes_u[p[gaps % len(side)]],
                "nominal": nominal[gaps],
                "before": np.searchsorted(rows, gaps),
            },
            total,
            dup=config.neg_passes > 1 or not ppl,
        )
        words.close(walk.run())
        got[pos, slot] = walk.got
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
    """Corruptions ``(k, 2)`` drawn 50/50 from the instance pool vs a random label level.

    The proposal picks the instance pool (the last level) with probability
    1/2, else one of the L label levels with 1/(2L), then a uniform member.
    Each slot takes one draw from what a rejection loop over that proposal
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
    props = [0.5 / (len(levels) - 1)] * (len(levels) - 1) + [0.5] if len(levels) > 1 else [1.0]
    unit = np.array([prop / len(pool) for prop, pool in zip(props, levels)])
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
    init_w: np.ndarray | None = None,
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
    """
    params = config.cone_params()
    rng = np.random.default_rng(config.seed)
    # no instances: no map either, so that the rng stream is the label-only one
    feats = np.asarray(features, dtype=float) if features is not None and len(features) else None
    graph = _Graph(h, positives, 0 if feats is None else len(feats))

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

    w: np.ndarray | None = None
    if feats is not None:
        if init_w is not None:
            w = np.array(init_w, dtype=float)
            if w.shape != (feats.shape[1], config.dim):
                raise ValueError(
                    f"init W shape {w.shape} != {(feats.shape[1], config.dim)}"
                )
        else:
            w = rng.standard_normal((feats.shape[1], config.dim)) * 0.01

    adam_labels = AdamState.like(coords) if config.optimizer == "adam" else None
    adam_w = AdamState.like(w) if w is not None else None

    rebalance = config.rebalance_images and feats is not None
    sampler = _sample_negatives_rebalanced if rebalance else _sample_negatives_for

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

    positives = np.array([(h.row_of[u], h.row_of[v]) for u, v in split.train], dtype=np.int64)
    coords, _, history = train_graph_embedding(
        h, positives, config, init_coords=init_coords, epoch_hook=hook
    )
    return EmbeddingTable(h.ids, coords, params), history


def pair_energies(emb: EmbeddingTable, pairs: Sequence[tuple[str, str]]) -> np.ndarray:
    if not len(pairs):
        return np.zeros(0)
    rows = emb.pair_rows(pairs)
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


def _metrics_at(pos_e: np.ndarray, neg_e: np.ndarray, t: float) -> EdgePredictionResult:
    """Metrics of classifying ``E <= t`` as positive."""
    tp = int(np.count_nonzero(pos_e <= t))
    fp = int(np.count_nonzero(neg_e <= t))
    fn, tn = len(pos_e) - tp, len(neg_e) - fp
    p = tp / (tp + fp) if tp + fp else 0.0
    r = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * p * r / (p + r) if p + r else 0.0
    total = tp + fp + fn + tn
    acc = (tp + tn) / total if total else 0.0
    return EdgePredictionResult(t, p, r, f1, acc)


def evaluate_edge_prediction(
    emb: EmbeddingTable, positives: EdgeSet, negatives: EdgeSet
) -> EdgePredictionResult:
    """Best-F1 threshold over the pooled energy multiset (classify E <= t)."""
    if not len(positives) or not len(negatives):
        raise ValueError("edge prediction needs non-empty positive and negative sets")
    return _best_threshold(
        pair_energies(emb, tuple(positives)), pair_energies(emb, tuple(negatives))
    )


def edge_prediction_at_threshold(
    emb: EmbeddingTable, positives: EdgeSet, negatives: EdgeSet, threshold: float
) -> EdgePredictionResult:
    """Metrics of a fixed, externally chosen threshold (e.g. from val)."""
    if not len(positives) or not len(negatives):
        raise ValueError("edge prediction needs non-empty positive and negative sets")
    return _metrics_at(
        pair_energies(emb, tuple(positives)), pair_energies(emb, tuple(negatives)), threshold
    )
