"""Paired codebooks of learnable basis tokens and fixed anchor trajectories.

Groups are built by Lloyd clustering of ground-truth trajectories under the
mean-waypoint-distance metric, bucketed by role: ego groups are partitioned
evenly across the three driving commands, agent groups share one bucket.
Each group holds the ``group_size`` trajectories nearest its centroid; basis
tokens map to them one-to-one and are the learnable half of the pair. The
distance is a metric, so the clustering skips most row-centroid distances
by the triangle inequality (Elkan, "Using the Triangle Inequality to
Accelerate k-Means", ICML 2003): each row keeps an upper bound on its
distance to its own centroid and a lower bound on its distance to every
centroid, both moved by each centroid's shift and widened by a guard far
above rounding, and only pairs the bounds cannot rule out are measured.
The assignments are exact and the distance matrix is computed once, from
the final centroids, so the codebook is bit-identical to the plain loop
and ``np.linalg.norm`` distance in ``tests/oracles.py``.

Every distance comes from one kernel, ``_dists``, over waypoint-major
trajectories (12, ...) broadcast over the trailing axes. ``traj_dists`` is
its adapter for flat (..., 12) rows, and ``traj_dist_blocks`` cuts every
row of one set against every row of another into blocks of at most
``DIST_BLOCK`` pairs, so that the clustering's returned matrix, the labels
of ``nearest_group`` and the anchor distances of ``triplet_table`` keep
their temporaries bounded.

A model pairs two stacked arrays, trajectories (n_code, C, 12) and basis
tokens (n_code, C, D), in a fixed group layout: the ``n_ego`` ego groups
first, ``n_ego / 3`` per command in ``COMMANDS`` order, then the agent
groups. The layout is stated once, as ``Codebook.buckets``: one entry per
group, the ``COMMANDS`` index of an ego group's command or ``len(COMMANDS)``
for an agent group. ``admissible`` compares it against one bucket per row
(a ``Command`` for an ego row, ``None`` for an agent row) to give the
groups each row may be classified into, and ``triplet_table`` ranks the
triplet classes of every label within the buckets.

``sample_and_cluster`` builds the trajectories once per model; a model
holds one ``Codebook`` over its own trajectory array (``trainer.Model.cb``),
which computes the tables that depend only on them once. The basis is the
model tensor ``cb.basis``, which the GP module reads from the tensor dict.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .core import COMMANDS, N_WAYPOINTS, Command, rng_for

LLOYD_MAX_ITERS = 100
LLOYD_TOL = 1e-6
# relative and absolute widening of every bound update: rounding moves a
# computed distance by about 1e-15 of itself
LLOYD_GUARD = 1e-9
# (row, column) pairs per traj_dist_blocks block: 416 KiB of temporaries in
# _dists. On a (2001, 64) matrix 4k and 8k were the fastest of 2k to 16k
# (2-core x86-64 host, one BLAS thread), and 8k raised the peak RSS
DIST_BLOCK = 1 << 12
# triplet selection takes 3 positives and 3 negatives per label: 3 other
# groups of an ego label's command, and 6 other groups of an agent label
MIN_EGO_PER_COMMAND = 4
MIN_AGENT_GROUPS = 7
# a row's bucket: its command's COMMANDS index, len(COMMANDS) for an agent row
_BUCKET_OF = {c: i for i, c in enumerate(COMMANDS)} | {None: len(COMMANDS)}


class BuildError(Exception):
    """Raised when a bucket has too few trajectories to populate its groups."""


class Codebook:
    """A model's codebook: group g's C trajectories are ``trajectories[g]``,
    paired one-to-one with the model's C basis tokens of group g, in the
    group layout above. The tables that depend only on the fixed
    trajectories are computed once: ``n_code``, ``group_size``, ``buckets``
    (n_code,) and ``traj_anchors`` (n_code, 12), each group's mean
    trajectory, at construction, and ``triplets`` on first use."""

    def __init__(self, trajectories: np.ndarray, n_ego: int):
        self.trajectories = trajectories  # (n_code, C, 12), fixed
        self.n_ego = n_ego
        self.n_code, self.group_size = trajectories.shape[:2]
        per_cmd = n_ego // len(COMMANDS)
        self.buckets = np.repeat(np.arange(len(COMMANDS) + 1),
                                 [per_cmd] * len(COMMANDS) + [self.n_code - n_ego])
        self.traj_anchors = trajectories.mean(axis=1)
        for table in (self.buckets, self.traj_anchors):
            table.flags.writeable = False

    @cached_property
    def triplets(self) -> tuple[np.ndarray, np.ndarray]:
        """The positive and negative triplet classes of every label, from
        ``triplet_table``."""
        return triplet_table(self)


def admissible(cb: Codebook, commands) -> np.ndarray:
    """(N, n_code) masks of the groups each row may be classified into, one
    row per entry of ``commands``: a ``Command`` for an ego row, ``None`` for
    an agent row."""
    rows = [_BUCKET_OF[c] for c in commands]
    return np.array(rows, dtype=np.intp)[:, None] == cb.buckets


def _dists(at: np.ndarray, bt: np.ndarray) -> np.ndarray:
    """Mean-over-waypoints Euclidean distance between waypoint-major
    trajectories (12, ...), broadcast over the trailing axes: the x and y
    differences squared and added, rooted, then summed over the waypoints
    left to right and divided by their count. These are the operations of
    the ``np.linalg.norm`` and ``mean`` form in ``tests/oracles.py``, in its
    order, so the bytes are equal."""
    d = at - bt
    d *= d
    s = d[0::2]
    s += d[1::2]
    np.sqrt(s, out=s)
    total = s[0] + s[1]
    for w in range(2, N_WAYPOINTS):
        total += s[w]
    total /= N_WAYPOINTS
    return total


def traj_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``_dists`` of flat trajectories (..., 12), broadcast over the leading
    axes."""
    a, b = np.broadcast_arrays(a, b)
    axes = (-1, *range(a.ndim - 1))  # the coordinate axis first
    return _dists(a.transpose(axes), b.transpose(axes))


def traj_dist_blocks(a: np.ndarray, b: np.ndarray):
    """The (n, k) ``traj_dists`` of every row of ``a`` (n, 12) to every row
    of ``b`` (k, 12), block by block: yields ``(lo, hi, dists)``, the rows
    lo:hi of the matrix. A block has at most ``DIST_BLOCK`` pairs (at least
    one row), measured by ``_dists`` on waypoint-major copies of both
    operands, made once."""
    at, bt = np.ascontiguousarray(a.T), np.ascontiguousarray(b.T)[:, None]
    step = max(1, DIST_BLOCK // len(b))
    for lo in range(0, len(a), step):
        hi = min(lo + step, len(a))
        yield lo, hi, _dists(at[:, lo:hi, None], bt)


def traj_dist_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The (n, k) ``traj_dists`` of every row of ``a`` to every row of
    ``b``, from ``traj_dist_blocks``."""
    out = np.empty((len(a), len(b)))
    for lo, hi, dists in traj_dist_blocks(a, b):
        out[lo:hi] = dists
    return out


def _lloyd(flat: np.ndarray, k: int, rng: np.random.Generator
           ) -> tuple[np.ndarray, np.ndarray]:
    """Cluster rows of ``flat`` into k centroids; returns them and the (n, k)
    distances of every row to each.

    Farthest-point initialization from a seeded first pick, whose exact
    distances seed the bounds, then Lloyd iterations: move each non-empty
    cluster's centroid to its mean, summed by one ``bincount`` over flat
    (group, column) ids, which adds in row order (the order of ``mean``),
    and reassign. A row's ``upper`` bounds its distance to its own centroid
    and ``lower[:, j]`` its distance to centroid j. A centroid's shift
    ``traj_dists(new, old)`` lowers its column of ``lower`` and raises the
    ``upper`` of its rows, each widened by ``LLOYD_GUARD`` relative and
    absolute. A row needs work only where some other centroid's lower bound
    does not clear its upper bound; it then gets the exact distance to its
    own centroid and to each such centroid, and its argmin over ``lower``,
    whose entries at or below ``upper`` are all exact, keeps ties on the
    lowest id. The farthest-point columns and the measured pairs are taken
    on one waypoint-major copy of the rows. The returned matrix is computed
    once, from the final centroids, by ``traj_dist_matrix``. Bit-identical to
    ``tests/oracles.py``'s ``lloyd_ref``, which recomputes everything."""
    n, d = flat.shape
    flat_t = np.ascontiguousarray(flat.T)  # waypoint-major, for _dists
    picks, nearest, lower = [], np.full(n, np.inf), np.empty((n, k))
    for j in range(k):
        picks.append(int(np.argmax(nearest)) if j else int(rng.integers(n)))
        lower[:, j] = _dists(flat_t, flat_t[:, picks[j], None])
        nearest = np.minimum(nearest, lower[:, j])
    centroids = flat[picks]
    every = np.arange(n)
    assign = np.argmin(lower, axis=1)
    upper = lower[every, assign]

    for _ in range(LLOYD_MAX_ITERS):
        counts = np.bincount(assign, minlength=k)[:, None]
        sums = np.bincount((assign[:, None] * d + np.arange(d)).ravel(), flat.ravel(),
                           minlength=k * d).reshape(k, d)
        new = np.where(counts > 0, sums / np.maximum(counts, 1), centroids)
        motion = float(np.max(np.linalg.norm(new - centroids, axis=1)))
        shift = traj_dists(new, centroids) * (1 + LLOYD_GUARD) + LLOYD_GUARD
        centroids = new
        if motion < LLOYD_TOL:
            break
        lower -= shift
        lower *= 1 - LLOYD_GUARD
        upper += shift[assign]
        upper *= 1 + LLOYD_GUARD
        check = lower <= upper[:, None]
        check[every, assign] = False
        rows = np.flatnonzero(check.any(axis=1))
        check[rows, assign[rows]] = True
        r, j = np.nonzero(check[rows])
        r = rows[r]
        lower[r, j] = _dists(flat_t[:, r], centroids.T[:, j])
        assign[rows] = np.argmin(lower[rows], axis=1)
        upper[rows] = lower[rows, assign[rows]]
    return centroids, traj_dist_matrix(flat, centroids)


def _nearest_rows(dists: np.ndarray, m: int) -> np.ndarray:
    """(k, m) column indices of the m smallest entries in each row of
    ``dists`` (k, n), ascending, equal distances in index order: the first m
    of a stable argsort, from one partial selection. Every entry below a
    row's m-th smallest value is kept, then entries equal to it in index
    order until the row has m."""
    cut = np.partition(dists, m - 1, axis=1)[:, m - 1:m]
    below = dists < cut
    tied = dists == cut
    keep = below | (tied & (np.cumsum(tied, axis=1)
                            <= m - np.count_nonzero(below, axis=1, keepdims=True)))
    idx = np.nonzero(keep)[1].reshape(len(dists), m)
    by_dist = np.argsort(np.take_along_axis(dists, idx, axis=1), axis=1, kind="stable")
    return np.take_along_axis(idx, by_dist, axis=1)


def sample_and_cluster(
    ego: np.ndarray,
    commands: list[Command],
    agents: np.ndarray,
    n_ego_groups: int,
    n_agent_groups: int,
    group_size: int,
    seed: int,
) -> np.ndarray:
    """The (n_code, C, 12) trajectories of a codebook, in the group layout.

    ``ego`` (S, 6, 2) holds ego trajectories and ``commands`` their S
    commands, ``agents`` (A, 6, 2) agent trajectories. Ego trajectories are
    bucketed per command, in row order, with n_ego_groups/3 groups each;
    agent trajectories form one bucket with n_agent_groups groups. A group's
    trajectories are the ``group_size`` rows of its bucket nearest its
    centroid.
    """
    if n_ego_groups % len(COMMANDS) != 0:
        raise BuildError(f"n_ego_groups {n_ego_groups} not divisible by {len(COMMANDS)}")
    per_cmd = n_ego_groups // len(COMMANDS)
    ego, agents = (np.reshape(t, (len(t), 2 * N_WAYPOINTS)) for t in (ego, agents))

    def build_bucket(flat: np.ndarray, role: str, cmd: Command | None, k: int) -> np.ndarray:
        need = k * group_size
        if len(flat) < need:
            raise BuildError(
                f"bucket {role}/{cmd.value if cmd else '-'}: {len(flat)} trajectories "
                f"< required {need} ({k} groups x {group_size})")
        centroids, dists = _lloyd(flat, k, rng_for(seed, "cluster", role,
                                                   cmd.value if cmd else "all"))
        # stable centroid order: by forward progress of the anchor endpoint
        order = np.argsort(centroids[:, -2], kind="stable")
        return flat[_nearest_rows(dists.T[order], group_size)]

    members = [build_bucket(ego[np.array([c is cmd for c in commands], dtype=bool)],
                            "ego", cmd, per_cmd) for cmd in COMMANDS]
    members.append(build_bucket(agents, "agent", None, n_agent_groups))
    return np.concatenate(members)


def nearest_group(cb: Codebook, flat: np.ndarray, admissible: np.ndarray) -> np.ndarray:
    """Ground-truth classes of the rows of ``flat`` (M, 12): each row's
    admissible group, from the (M, n_code) mask, with the nearest traj_anchor.
    Every row is measured only against its own bucket's anchors, which are
    its admissible groups, by ``traj_dist_blocks``, and each block's argmin
    is taken before the next block, so no (M, anchors) matrix is kept. Ties
    go to the lowest group id."""
    anchors, buckets = cb.traj_anchors, cb.buckets
    row_bucket = buckets[np.argmax(admissible, axis=1)]
    labels = np.empty(len(flat), dtype=np.intp)
    for b in np.unique(row_bucket):
        rows, ids = np.flatnonzero(row_bucket == b), np.flatnonzero(buckets == b)
        for lo, hi, dists in traj_dist_blocks(flat[rows], anchors[ids]):
            labels[rows[lo:hi]] = ids[np.argmin(dists, axis=1)]
    return labels


def triplet_table(cb: Codebook) -> tuple[np.ndarray, np.ndarray]:
    """Positive and negative triplet classes of every label group, as two
    (n_code, 3) id arrays; row g holds label g's.

    An ego label's positives are the 3 other groups of its command with the
    nearest trajectory anchors, its negatives the 3 nearest ego groups of
    the other commands. An agent label's are its 3 nearest and 3 farthest
    other agent groups. Only the ego x ego and agent x agent blocks of the
    anchor-distance matrix are measured. Each label's candidates, in id
    order, are ranked by a stable argsort of its row of its bucket's block,
    so ties go to the lower id, and the label itself is dropped.
    """
    per_cmd, n_agent = cb.n_ego // len(COMMANDS), cb.n_code - cb.n_ego
    if per_cmd < MIN_EGO_PER_COMMAND or n_agent < MIN_AGENT_GROUPS:
        raise ValueError(
            f"not enough groups for triplet selection: {per_cmd} ego groups per "
            f"command (need {MIN_EGO_PER_COMMAND}), {n_agent} agent groups "
            f"(need {MIN_AGENT_GROUPS})")
    anchors, buckets = cb.traj_anchors, cb.buckets
    positives, negatives = (np.empty((cb.n_code, 3), dtype=np.intp) for _ in range(2))
    for role in (slice(0, cb.n_ego), slice(cb.n_ego, cb.n_code)):
        ids = np.arange(cb.n_code)[role]
        # [label, candidate]: the distance of candidate - label
        dist = traj_dist_matrix(anchors[role], anchors[role]).T
        for b in np.unique(buckets[role]):
            own = buckets[role] == b
            labels = ids[own]
            order = np.argsort(dist[np.ix_(own, own)], axis=1, kind="stable")
            # each label's other groups of its bucket, nearest first
            same = labels[order[order != np.arange(len(labels))[:, None]]
                          .reshape(len(labels), -1)]
            positives[labels] = same[:, :3]
            if b == len(COMMANDS):  # an agent label: its 3 farthest
                negatives[labels] = same[:, -3:]
            else:  # an ego label: the 3 nearest of the other commands
                nearest = np.argsort(dist[np.ix_(own, ~own)], axis=1, kind="stable")
                negatives[labels] = ids[~own][nearest[:, :3]]
    return positives, negatives
