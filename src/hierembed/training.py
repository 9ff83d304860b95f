"""Max-margin training of order-violation embeddings.

One epoch engine serves both trainers: the label-only trainer feeds it
label-label edges, the joint trainer additionally registers instance
nodes whose embeddings are computed from feature rows through a linear
map (plus the exponential map at zero on the ball). With no instances the
joint path reduces to label-only training exactly, batch for batch.

The loss over a batch is ``sum_pos E + sum_neg max(0, margin - E)``.
Negatives come from pick-per-level corruption by default: for each
positive, one corrupted edge per level and per side (corrupt-u,
corrupt-v), skipping corruptions that are true pairs. The engine calls the
sampler once per batch, with the batch's parent and child rows; it returns
the pairs the per-positive draws would give, in the same order and from
the same random stream.
"""

from __future__ import annotations

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
        if self.margin <= 0:
            raise ValueError("margin must be positive")
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
        missing = sorted(set(node_ids) - self._row.keys())
        if missing:
            raise ValueError(
                f"model lacks {len(missing)} of the {len(set(node_ids))} hierarchy labels "
                f"being scored: {name_some(missing)}"
            )
        return np.array([self._row[nid] for nid in node_ids], dtype=np.int64)

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
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """One update of an embedding table, projected back into the domain."""
    if not np.all(np.isfinite(grads)):
        bad = int(np.count_nonzero(~np.isfinite(grads)))
        raise TrainingError(f"non-finite gradient ({bad} entries)")
    if config.optimizer == "rsgd":
        updated = rsgd_step(params, grads, config.lr)
    else:
        if state is None:
            raise TrainingError("adam requires moment state")
        updated = adam_step(params, grads, state, config.lr)
    return geometry.project_rows(updated, config.cone_params(), rng)


# ---------------------------------------------------------------------------
# Loss
# ---------------------------------------------------------------------------

def hinge_loss(
    X: np.ndarray, Y: np.ndarray, params: ConeParams, margin: float | None = None
) -> tuple[float, np.ndarray, np.ndarray]:
    """Loss and gradient rows ``(loss, dX, dY)`` of row-aligned pairs.

    Positives (``margin`` None) score ``sum E``; negatives score
    ``sum max(0, margin - E)``, with a zero gradient where the hinge is
    flat (``E >= margin``).
    """
    e, gx, gy = geometry.energies_and_gradients(X, Y, params)
    if margin is None:
        return float(e.sum()), gx, gy
    active = (e < margin)[:, None]
    loss = float(np.maximum(0.0, margin - e).sum())
    return loss, np.where(active, -gx, 0.0), np.where(active, -gy, 0.0)


def max_margin_loss(
    positives: Sequence[tuple[str, str]],
    negatives: Sequence[tuple[str, str]],
    emb: EmbeddingTable,
    margin: float,
) -> tuple[float, np.ndarray]:
    """Hinge loss over edge sets with gradients accumulated per node row."""
    grad = np.zeros_like(emb.coords)
    loss = 0.0
    for pairs, m in ((positives, None), (negatives, margin)):
        if len(pairs):
            iu = np.array([emb.row(u) for u, _ in pairs])
            iv = np.array([emb.row(v) for _, v in pairs])
            part, gx, gy = hinge_loss(emb.coords[iu], emb.coords[iv], emb.params, m)
            loss += part
            np.add.at(grad, iu, gx)
            np.add.at(grad, iv, gy)
    return loss, grad


# ---------------------------------------------------------------------------
# Epoch engine
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InstanceNodes:
    """Feature-mapped nodes appended below the deepest label level."""

    instance_ids: tuple[str, ...]
    features: np.ndarray  # (n, D)


class _Graph:
    """Integer-encoded training graph: labels first, then instances."""

    def __init__(
        self,
        h: Hierarchy,
        positives: Sequence[tuple[str, str]],
        instances: InstanceNodes | None,
        forbidden_extra: set[tuple[str, str]] | None = None,
    ):
        self.label_ids = h.ids
        self.n_labels = len(self.label_ids)
        index = dict(h.row_of)
        if instances is not None:
            for k, iid in enumerate(instances.instance_ids):
                if iid in index:
                    raise ValueError(f"instance id {iid!r} collides with a label id")
                index[iid] = self.n_labels + k
        self.index = index
        self.n_total = len(index)
        self.positives = np.array(
            [(index[u], index[v]) for u, v in positives], dtype=np.int64
        ).reshape(-1, 2)
        # Levels available to the corruption sampler: label levels, then the
        # instance level (lowest) when present.
        self.levels = [np.flatnonzero(h.level_of == l) for l in range(1, h.level_count + 1)]
        if instances is not None and len(instances.instance_ids):
            self.levels.append(
                np.arange(self.n_labels, self.n_total, dtype=np.int64)
            )
        forbidden = {(index[u], index[v]) for u, v in h.closure_set()}
        if forbidden_extra:
            forbidden |= {(index[u], index[v]) for u, v in forbidden_extra}
        forbidden |= {(int(u), int(v)) for u, v in self.positives}
        self.forbidden = forbidden
        self._banned_tables()
        # Candidate pools of ``_sample_negatives_for``, keyed by pick_per_level:
        # one pool per level, or every level's slot drawing from all nodes.
        # ``empty[side, p, node]``: no candidate in ``pools[p]`` is a valid
        # negative. The levels partition the nodes, so the all-nodes pool's
        # valid count is the sum over levels.
        everyone = [self.order] if self.levels else []
        self.pools = {True: self.levels, False: everyone * len(self.levels)}
        none_valid = self.valid.sum(axis=1, keepdims=True) == 0
        self.empty = {
            True: self.valid == 0,
            False: np.repeat(none_valid, len(self.levels), axis=1),
        }

    def _banned_tables(self) -> None:
        """Valid counts and banned positions per (side, node), from the banned pairs.

        Side 0 corrupts u, so ``node`` is the positive's child v; side 1
        corrupts v, so ``node`` is its parent u. A candidate is banned if it
        forms a forbidden pair or a self-pair with ``node``, or if both are
        instances. The levels, concatenated, give every node a position
        (``order[pos]`` is the node).

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
        self.order = np.concatenate(self.levels) if self.levels else np.zeros(0, np.int64)
        pos = np.empty(n, dtype=np.int64)
        pos[self.order] = np.arange(n)
        sizes = np.array([len(pool) for pool in self.levels], dtype=np.int64)
        level_at = np.repeat(np.arange(len(sizes)), sizes)  # level of each position
        keys = np.fromiter(
            (a * n + b for a, b in self.forbidden), dtype=np.int64, count=len(self.forbidden)
        )
        keys = np.unique(np.concatenate([keys, np.arange(n, dtype=np.int64) * (n + 1)]))
        a, b = np.divmod(keys, n)
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

    def is_instance(self, node: int) -> bool:
        return node >= self.n_labels


def _sample_negatives_for(
    graph: _Graph,
    u: np.ndarray,
    v: np.ndarray,
    rng: np.random.Generator,
    config: TrainConfig,
) -> np.ndarray:
    """Corruptions ``(k, 2)`` of the positives ``(u[i], v[i])``, listed per positive.

    Per positive: one corruption per (pass, side, pool) slot, each slot
    giving up after RETRY_CAP scalar draws. A slot in which no candidate is
    valid (``_Graph.empty``) still owes its RETRY_CAP draws, so that seeded
    runs replay byte for byte; they are queued and each run of such slots
    is spent in one ``rng.integers`` call with per-draw bounds, the same
    stream as scalar draws. A one-member pool's draws consume no stream.
    """
    pools = graph.pools[config.pick_per_level]
    sizes = [len(pool) for pool in pools]
    empty = graph.empty[config.pick_per_level]
    # [positive][side][pool]: the slot holds no valid negative
    slot_empty = np.stack([empty[0][:, v], empty[1][:, u]]).transpose(2, 0, 1).tolist()
    owed: list[int] = []  # pool sizes of the queued empty slots

    def spend() -> None:
        rng.integers(0, np.repeat(owed, RETRY_CAP))
        owed.clear()

    out: list[tuple[int, int]] = []
    for pu, pv, skip in zip(u.tolist(), v.tolist(), slot_empty):
        seen: set[tuple[int, int]] = set()
        for _ in range(config.neg_passes):
            for side, corrupt_u in enumerate((True, False)):
                for p, pool in enumerate(pools):
                    if skip[side][p]:
                        if sizes[p] > 1:
                            owed.append(sizes[p])
                        continue
                    if owed:
                        spend()
                    for _ in range(RETRY_CAP):
                        cand = int(pool[int(rng.integers(sizes[p]))])
                        pair = (cand, pv) if corrupt_u else (pu, cand)
                        if pair[0] == pair[1] or pair in graph.forbidden or pair in seen:
                            continue
                        if graph.is_instance(pair[0]) and graph.is_instance(pair[1]):
                            continue
                        out.append(pair)
                        seen.add(pair)
                        break
    if owed:
        spend()
    return np.array(out, dtype=np.int64).reshape(-1, 2)


def _sample_negatives_rebalanced(
    graph: _Graph,
    u: np.ndarray,
    v: np.ndarray,
    rng: np.random.Generator,
    config: TrainConfig,
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
    subtract-and-compare chain. Pairs are listed per positive, side 0 first.
    """
    levels = graph.levels
    props = [0.5 / (len(levels) - 1)] * (len(levels) - 1) + [0.5] if len(levels) > 1 else [1.0]
    unit = np.array([prop / len(pool) for prop, pool in zip(props, levels)])
    slots = len(levels) * config.neg_passes
    n = graph.n_total
    side = np.tile([0, 1], len(u))
    fixed = np.stack([v, u], axis=1).ravel()  # side 0 corrupts u, so it is keyed by v
    draws = rng.random(2 * slots * len(u)).reshape(-1, slots)
    counts = graph.valid[side, :, fixed]
    slot_of = side * n + fixed
    seen = np.empty((len(side), slots), dtype=np.int64)  # drawn valid indices, ascending
    drawn = np.full((len(side), slots), -1, dtype=np.int64)
    live = np.arange(len(side))  # rows with a valid candidate left
    for t in range(slots):
        masses = counts * unit
        total = np.cumsum(masses, axis=1)[:, -1]
        if not np.all(total > 0.0):
            keep = total > 0.0
            live, counts, seen, draws, slot_of, masses, total = (
                a[keep] for a in (live, counts, seen, draws, slot_of, masses, total)
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
        k = (np.cumsum(counts, axis=1) - counts)[row, p] + np.minimum(
            (x / unit[p]).astype(np.int64), counts[row, p] - 1
        )
        for j in range(t):  # the k-th valid index not yet drawn
            k += seen[:, j] <= k
        seen[:, t] = k
        seen[:, : t + 1].sort(axis=1)
        counts[row, p] -= 1
        key = slot_of * (n + 1) + k
        below = np.searchsorted(graph.banned_key, key, side="right") - graph.banned_ptr[slot_of]
        drawn[live, t] = graph.order[k + below]
    got = drawn >= 0
    corrupt_u = (side == 0)[:, None]
    first = np.where(corrupt_u, drawn, fixed[:, None])[got]
    second = np.where(corrupt_u, fixed[:, None], drawn)[got]
    return np.stack([first, second], axis=1)


def train_graph_embedding(
    h: Hierarchy,
    positives: Sequence[tuple[str, str]],
    config: TrainConfig,
    *,
    instances: InstanceNodes | None = None,
    forbidden_extra: set[tuple[str, str]] | None = None,
    init_coords: np.ndarray | None = None,
    init_w: np.ndarray | None = None,
    epoch_hook: Callable[[np.ndarray, np.ndarray | None], dict] | None = None,
) -> tuple[np.ndarray, np.ndarray | None, list[dict]]:
    """Shared epoch engine; returns (label coords, linear map or None, log).

    The graph holds one point per label plus, optionally, one node per
    instance embedded as ``feat @ W`` (wrapped in ``exp_0`` on the ball).
    Labels are optimized directly (Adam or RSGD + projection); ``W`` is
    always optimized with Adam at ``config.lr_instances``.
    """
    params = config.cone_params()
    rng = np.random.default_rng(config.seed)
    if instances is not None and not len(instances.instance_ids):
        instances = None  # keep the rng stream identical to label-only runs
    graph = _Graph(h, positives, instances, forbidden_extra)

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
    feats: np.ndarray | None = None
    if instances is not None:
        feats = np.asarray(instances.features, dtype=float)
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

    sampler = (
        _sample_negatives_rebalanced
        if (config.rebalance_images and instances is not None and len(instances.instance_ids))
        else _sample_negatives_for
    )

    def embed(nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
        out = np.empty((len(nodes), config.dim))
        lab = nodes < graph.n_labels
        out[lab] = coords[nodes[lab]]
        z = None
        if np.any(~lab):
            z = feats[nodes[~lab] - graph.n_labels] @ w
            out[~lab] = geometry.exp_map_zero(z) if config.kind == "hc" else z
        return out, z

    def accumulate(
        nodes: np.ndarray,
        grads: np.ndarray,
        z: np.ndarray | None,
        coords_grad: np.ndarray,
        w_grad: np.ndarray | None,
    ) -> None:
        lab = nodes < graph.n_labels
        np.add.at(coords_grad, nodes[lab], grads[lab])
        if np.any(~lab):
            g = grads[~lab]
            dz = geometry.exp_map_zero_backprop(z, g) if config.kind == "hc" else g
            w_grad += feats[nodes[~lab] - graph.n_labels].T @ dz

    history: list[dict] = []
    n_pos = len(graph.positives)
    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(n_pos) if n_pos else np.array([], dtype=np.int64)
        epoch_loss = 0.0
        for b, start in enumerate(range(0, n_pos, config.batch_size), 1):
            batch = graph.positives[order[start : start + config.batch_size]]
            negs = sampler(graph, batch[:, 0], batch[:, 1], rng, config)
            coords_grad = np.zeros_like(coords)
            w_grad = np.zeros_like(w) if w is not None else None

            terms = [(batch, None)]
            if len(negs):
                terms.append((negs, config.margin))
            for pairs, margin in terms:
                xs, zx = embed(pairs[:, 0])
                ys, zy = embed(pairs[:, 1])
                loss, gx, gy = hinge_loss(xs, ys, params, margin)
                epoch_loss += loss
                accumulate(pairs[:, 0], gx, zx, coords_grad, w_grad)
                accumulate(pairs[:, 1], gy, zy, coords_grad, w_grad)

            where = f"epoch {epoch}, batch {b}"
            if not np.isfinite(epoch_loss):
                raise TrainingError(f"loss diverged at {where}")
            try:
                coords = optimizer_step(coords, coords_grad, adam_labels, config, rng)
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

    coords, _, history = train_graph_embedding(
        h, tuple(split.train), config, init_coords=init_coords, epoch_hook=hook
    )
    return EmbeddingTable(h.ids, coords, params), history


def pair_energies(emb: EmbeddingTable, pairs: Sequence[tuple[str, str]]) -> np.ndarray:
    if not len(pairs):
        return np.zeros(0)
    iu = np.array([emb.row(u) for u, _ in pairs])
    iv = np.array([emb.row(v) for _, v in pairs])
    return geometry.energies(emb.coords[iu], emb.coords[iv], emb.params)


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
