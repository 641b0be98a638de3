"""Clustering, anchors, admissibility, and triplet classes."""

from __future__ import annotations

import numpy as np
import pytest

from gptraj import codebook, config
from gptraj.codebook import (BuildError, Codebook, admissible, nearest_group,
                             sample_and_cluster, traj_dist_blocks, traj_dist_matrix,
                             traj_dists, triplet_table)
from gptraj.core import COMMANDS, COORD_BOUND, Command, rng_for, scene_rows
from gptraj.synthdomain import gen_dataset

from oracles import (command_of_ref, group_ids_ref, lloyd_ref, traj_distance,
                     traj_dists_ref, triplet_classes_ref, triplet_table_ref)


def straight(speed: float, jitter: float = 0.0, rng=None) -> np.ndarray:
    t = 0.5 * np.arange(1, 7)
    pts = np.stack([speed * t, np.zeros(6)], axis=1)
    if rng is not None:
        pts = pts + rng.normal(scale=jitter, size=pts.shape)
    return pts


def curved(speed: float, curv: float) -> np.ndarray:
    t = 0.5 * np.arange(1, 7)
    th = curv * speed * t
    return np.stack([np.sin(th) / curv, (1 - np.cos(th)) / curv], axis=1)


def cluster_input(ego: list, agents: list) -> tuple:
    """``sample_and_cluster``'s first three arguments from a list of
    (trajectory, command) ego pairs and a list of agent trajectories."""
    return (np.array([t for t, _ in ego]).reshape(-1, 6, 2), [c for _, c in ego],
            np.array(agents).reshape(-1, 6, 2))


def clustered(ego, commands, agents, n_ego_groups, n_agent_groups, group_size,
              seed) -> Codebook:
    """The codebook of ``sample_and_cluster``'s trajectories."""
    trajs = sample_and_cluster(ego, commands, agents, n_ego_groups, n_agent_groups,
                               group_size, seed=seed)
    return Codebook(trajs, n_ego_groups)


def corpus(n_per_cmd=24, n_agent=40, seed=0):
    """(ego, commands, agents) of curved turns, noisy straight ego
    trajectories and noisier straight agent trajectories."""
    rng = np.random.default_rng(seed)
    ego = []
    for cmd, curv in ((Command.TURN_LEFT, 0.05), (Command.TURN_RIGHT, -0.05)):
        for _ in range(n_per_cmd):
            ego.append((curved(rng.uniform(3, 12), curv + rng.normal(0, 0.01)), cmd))
    for _ in range(n_per_cmd):
        ego.append((straight(rng.uniform(3, 12), 0.05, rng), Command.GO_STRAIGHT))
    agents = [straight(rng.uniform(3, 12), 0.3, rng) for _ in range(n_agent)]
    return cluster_input(ego, agents)


def test_speed_clusters_are_pure():
    # three well-separated speed families in one bucket; every member must be
    # nearer its own centroid than any other (brute-force assignment check)
    rng = np.random.default_rng(1)
    agents = [straight(speed, 0.05, rng) for speed in (2.0, 8.0, 14.0) for _ in range(12)]
    # minimal ego data per command bucket
    ego = [(straight(6.0, 0.05, rng), cmd) for cmd in COMMANDS for _ in range(8)]
    cb = clustered(*cluster_input(ego, agents), n_ego_groups=3, n_agent_groups=3,
                   group_size=8, seed=0)
    anchors = cb.traj_anchors.reshape(-1, 6, 2)
    agent_ids = group_ids_ref(cb, None)
    for g in agent_ids:
        others = [o for o in agent_ids if o != g]
        for member in cb.trajectories[g].reshape(-1, 6, 2):
            d_own = traj_distance(member, anchors[g])
            for o in others:
                assert d_own <= traj_distance(member, anchors[o]) + 1e-9


def test_agent_speed_families_separate():
    rng = np.random.default_rng(2)
    agents = [straight(speed, 0.02, rng) for speed in (2.0, 8.0, 14.0) for _ in range(10)]
    # minimal ego data so the build succeeds
    ego = [(straight(6.0, 0.02, rng), cmd) for cmd in COMMANDS for _ in range(4)]
    cb = clustered(*cluster_input(ego, agents), 3, 3, group_size=4, seed=1)
    speeds_per_group = []
    for gid in group_ids_ref(cb, None):
        xs = cb.trajectories[gid, :, 0]  # first-waypoint x ~ 0.5 * speed
        speeds_per_group.append(xs.mean() * 2.0)
        assert xs.std() * 2.0 < 2.0  # one speed family per group
    assert sorted(np.round(speeds_per_group)) == [2.0, 8.0, 14.0]


def test_identical_trajectories_degenerate_cluster():
    t = straight(5.0)
    ego = [(t, cmd) for cmd in COMMANDS for _ in range(4)]
    cb = clustered(*cluster_input(ego, [t] * 4), 3, 1, group_size=4, seed=0)
    [g] = group_ids_ref(cb, None)
    assert np.allclose(cb.traj_anchors[g], t.reshape(-1))
    assert np.allclose(cb.trajectories[g], t.reshape(-1))


def test_no_group_mixes_commands():
    ego, commands, agents = corpus()
    cb = clustered(ego, commands, agents, 6, 4, group_size=8, seed=3)
    assert cb.buckets.tolist() == [0, 0, 1, 1, 2, 2, 3, 3, 3, 3]
    assert [command_of_ref(cb, g) for g in range(cb.n_code)] == (
        [c for c in COMMANDS for _ in range(2)] + [None] * 4)
    # each group holds only trajectories of the bucket its layout entry names
    bucket = {t.tobytes(): cmd for t, cmd in zip(ego, commands)}
    bucket.update((t.tobytes(), None) for t in agents)
    for g in range(cb.n_code):
        for row in cb.trajectories[g]:
            assert bucket[row.tobytes()] == command_of_ref(cb, g)
    for cmd in COMMANDS + (None,):
        ids = group_ids_ref(cb, cmd)
        assert {bucket[row.tobytes()] for row in cb.trajectories[ids].reshape(-1, 12)} == {
            cmd}


def hard_rows(n: int, seed: int) -> np.ndarray:
    """n flat trajectories: uniform in the coordinate bound, with runs of
    zeros, of 0.1 m steps (equal distances and signed zeros) and of
    coordinates at +-COORD_BOUND."""
    rng = np.random.default_rng(seed)
    rows = rng.uniform(-COORD_BOUND, COORD_BOUND, size=(n, 12))
    kind = np.arange(n) % 15
    rows[kind < 1] = 0.0
    tied = (kind >= 1) & (kind < 9)
    rows[tied] = np.round(rng.normal(scale=0.3, size=(tied.sum(), 12)), 1)
    edge = (kind >= 9) & (kind < 11)
    rows[edge] = COORD_BOUND * rng.choice([-1.0, 1.0], size=(edge.sum(), 12))
    return rows


def test_traj_dists_matches_norm_form_bit_for_bit():
    rows = hard_rows(300, 11)
    for c in rows[[0, 30, 150, 299]]:  # _lloyd's farthest-point columns
        assert traj_dists(rows, c).tobytes() == traj_dists_ref(rows, c).tobytes()
    # _lloyd's shifts and measured (row, centroid) pairs: one centroid per row
    assert traj_dists(rows, rows[::-1]).tobytes() == traj_dists_ref(rows, rows[::-1]).tobytes()


@pytest.mark.parametrize("scale", [1.0, 1e150, 1e-150], ids=["1", "1e150", "1e-150"])
def test_kernel_matches_norm_form_on_broadcasts_views_and_scales(scale):
    rows = hard_rows(90, 14) * scale
    dup = rows[np.random.default_rng(15).integers(30, size=60)]  # repeated rows
    strided = np.asfortranarray(rows)[::3]  # a non-contiguous view
    for a, b in [(rows, rows[::-1]),  # pairs
                 (rows, rows[7]),  # one column
                 (rows[:, None], dup[None, :20]),  # (90, 20)
                 (rows.reshape(9, 10, 12), dup[:10]),  # (9, 10)
                 (strided, dup[::-2]),
                 (dup, dup[::-1])]:
        assert traj_dists(a, b).tobytes() == traj_dists_ref(a, b).tobytes()
    for a, b in [(rows, dup), (dup[::-2], strided), (dup, dup)]:
        want = traj_dists_ref(a[:, None], b)
        assert traj_dist_matrix(a, b).tobytes() == want.tobytes()


@pytest.mark.parametrize("k", [1, 16, 64, 48, codebook.DIST_BLOCK + 3])
def test_blocked_kernel_matches_norm_form_bit_for_bit(k):
    # 48 columns do not divide a block, and more columns than DIST_BLOCK
    # make blocks of one row
    step = max(1, codebook.DIST_BLOCK // k)  # rows per block
    cols = hard_rows(k + 7, 12)[7:]
    for n in sorted({1, max(1, step - 1), step, step + 1, 2 * step + 1}):
        rows = hard_rows(n, n)
        want = traj_dists_ref(rows[:, None], cols)
        assert traj_dist_matrix(rows, cols).tobytes() == want.tobytes(), n
        spans = [(lo, hi) for lo, hi, d in traj_dist_blocks(rows, cols)]
        assert [lo for lo, _ in spans] == list(range(0, n, step))
        assert spans[-1][1] == n
    # triplet_table's anchor distances, [label, candidate]
    anchors = hard_rows(112, 13)
    assert (traj_dist_matrix(anchors, anchors).T.tobytes()
            == traj_dists_ref(anchors[None], anchors[:, None]).tobytes())


def lloyd_bucket(case: int) -> tuple[np.ndarray, int]:
    """Bucket ``case``: n rows, log-uniform in [50, 2500], and k in [4, 64].
    Every third bucket is rounded to 0.1 m, and every other one of those is
    drawn from fewer distinct rows than k, so that distances tie and
    clusters empty."""
    rng = np.random.default_rng(case)
    n = int(np.exp(rng.uniform(np.log(50), np.log(2500))))
    k = int(rng.integers(4, 65))
    speed = rng.uniform(0.0, 15.0, size=(n, 1, 1))
    steps = speed * [0.5, 0.0] + rng.normal(scale=0.4, size=(n, 6, 2))
    flat = steps.cumsum(axis=1).reshape(n, 12)
    if case % 3 == 2:
        flat = np.round(flat, 1)
        if case % 2:
            flat = flat[rng.integers(k // 2, size=n)]
    return flat, k


@pytest.mark.parametrize("case", range(24))
def test_lloyd_matches_reference_bit_for_bit(case):
    flat, k = lloyd_bucket(case)
    centroids, dists = codebook._lloyd(flat, k, np.random.default_rng(case))
    ref = lloyd_ref(flat, k, np.random.default_rng(case),
                    max_iters=codebook.LLOYD_MAX_ITERS, tol=codebook.LLOYD_TOL)
    assert centroids.tobytes() == ref.tobytes()
    # the kept distance columns are those of the final centroids
    assert dists.tobytes() == np.stack([traj_dists_ref(flat, c) for c in ref],
                                       axis=1).tobytes()
    if case % 6 == 5:  # fewer distinct rows than k: equal centroids, empty clusters
        assert len(np.unique(ref, axis=0)) < k


def assert_lloyd_matches_reference(flat: np.ndarray, k: int, seed: int) -> np.ndarray:
    """Run ``_lloyd`` and ``lloyd_ref`` from one seed, check that the
    centroids and the distance matrix are equal byte for byte, and return
    the matrix."""
    centroids, dists = codebook._lloyd(flat, k, np.random.default_rng(seed))
    ref = lloyd_ref(flat, k, np.random.default_rng(seed),
                    max_iters=codebook.LLOYD_MAX_ITERS, tol=codebook.LLOYD_TOL)
    assert centroids.tobytes() == ref.tobytes()
    assert dists.tobytes() == np.stack([traj_dists_ref(flat, c) for c in ref],
                                       axis=1).tobytes()
    return dists


def near_tie_bucket(a: float, b: float, m: int) -> np.ndarray:
    """m constant rows at a, m at b, and two probes one ulp either side of
    their midpoint: wherever the clustering splits the probes, each sits
    within a few ulps of a tie between the two centroids."""
    mid = (a + b) / 2
    values = [a] * m + [b] * m + [np.nextafter(mid, a), np.nextafter(mid, b)]
    return np.repeat(np.array(values)[:, None], 12, axis=1)


def test_lloyd_near_ties_one_ulp_apart_match_reference():
    split = 0
    for a, b in ((0.0, 3.0), (1.0, 4.0), (-0.5, 0.25)):
        for m in (3, 4, 5):
            flat = near_tie_bucket(a, b, m)
            for seed in range(3):
                probes = np.sort(assert_lloyd_matches_reference(flat, 2, seed)[-2:], axis=1)
                gap = (probes[:, 1] - probes[:, 0]) / np.spacing(probes[:, 1])
                split += bool(np.all(gap <= 8))
    assert split  # some runs end with both probes within 8 ulps of a tie
    for case in (31, 433, 1660, 2274):
        assert_lloyd_matches_reference(*collinear_bucket(case), case)


def collinear_bucket(case: int) -> tuple[np.ndarray, int]:
    """Rows on one line through the origin at half-integer steps, 40 % of
    them nudged one ulp: distances agree with the triangle inequality up to
    rounding alone. In the cases the test runs, bounds moved by the bare
    shift, without ``LLOYD_GUARD``, prune a pair that decides an
    assignment."""
    rng = np.random.default_rng(case)
    n, k = int(rng.integers(6, 60)), int(rng.integers(2, 6))
    steps = rng.integers(-6, 7, size=n) / 2.0
    nudge = rng.random(n) < 0.4
    steps[nudge] = np.nextafter(steps[nudge], rng.choice([-np.inf, np.inf], nudge.sum()))
    direction = (np.ones(12) if case % 2 else rng.integers(-2, 3, size=12).astype(float))
    return steps[:, None] * direction, k


@pytest.mark.parametrize("scale", ["coord-bound", "millimetre"])
def test_lloyd_extreme_scales_match_reference(scale):
    rng = np.random.default_rng(7)
    for seed in range(3):
        if scale == "coord-bound":  # every coordinate within 1 m of +-COORD_BOUND
            flat = rng.choice([-1.0, 1.0], size=(300, 12)) * (
                COORD_BOUND - rng.uniform(0.0, 1.0, size=(300, 12)))
        else:  # coordinates of a few millimetres
            flat = 1e-3 * lloyd_bucket(seed)[0][:300] / 30.0
        assert_lloyd_matches_reference(flat, int(rng.integers(4, 33)), seed)


def test_lloyd_degenerate_sizes_match_reference():
    rng = np.random.default_rng(8)
    same = np.tile(rng.integers(-40, 41, size=12) / 4, (40, 1))  # exact means
    dists = assert_lloyd_matches_reference(same, 5, 0)  # all rows equal
    assert not dists.any()
    flat, _ = lloyd_bucket(3)
    assert_lloyd_matches_reference(flat, 1, 3)  # k = 1
    distinct = rng.normal(size=(12, 12))
    dists = assert_lloyd_matches_reference(distinct, 12, 4)  # k = n
    assert (np.sort(dists, axis=1)[:, 0] == 0).all()  # every row is a centroid
    assert_lloyd_matches_reference(distinct[rng.integers(12, size=12)], 12, 5)


def test_lloyd_iteration_cap_matches_reference(monkeypatch):
    flat, k = lloyd_bucket(1)
    cap = 3
    unbounded = lloyd_ref(flat, k, np.random.default_rng(1),
                          max_iters=codebook.LLOYD_MAX_ITERS, tol=codebook.LLOYD_TOL)
    capped = lloyd_ref(flat, k, np.random.default_rng(1), max_iters=cap,
                       tol=codebook.LLOYD_TOL)
    assert capped.tobytes() != unbounded.tobytes()  # the cap stops the run
    monkeypatch.setattr(codebook, "LLOYD_MAX_ITERS", cap)
    assert_lloyd_matches_reference(flat, k, 1)


def test_lloyd_skips_most_distances_on_the_agent_bucket(monkeypatch):
    # the seed-0, 1000-scene source_city agent bucket, 64 groups: measuring
    # every row against every centroid in every iteration takes 1,156,578
    # row-centroid distances
    records = gen_dataset(config.resolve({}).domain("source_city"), 1000, seed=0)
    flat = scene_rows(records, labeled=True).gt[len(records):].reshape(-1, 12)
    measured = []
    kernel = codebook._dists

    def counting(at, bt):
        out = kernel(at, bt)
        measured.append(out.size)
        return out

    monkeypatch.setattr(codebook, "_dists", counting)
    codebook._lloyd(flat, 64, rng_for(0, "cluster", "agent", "all"))
    assert sum(measured) < 1_156_578 // 2


def test_build_matches_reference_forms(monkeypatch):
    records = gen_dataset(config.resolve({}).domain("source_city"), 80, seed=3)
    generated = cluster_input([(r.ego_gt, r.command) for r in records],
                              [t for r in records for t in r.agent_gt])
    # straight lines at whole speeds, shifted sideways by whole metres: rows
    # at exactly equal distances from a centroid, so that tie order shows
    shifts = [(0, 0), (0, 1), (0, -1), (0, 2), (0, -2)]
    lattice = cluster_input([(straight(6.0) + s, cmd) for cmd in COMMANDS for s in shifts],
                            [straight(float(v)) + s for v in range(2, 10) for s in shifts])
    cases = [(generated, 12, 7, 4, 3), (lattice, 3, 4, 4, 0)]
    got = [sample_and_cluster(*trajs, *sizes) for trajs, *sizes in cases]

    def lloyd(flat, k, rng):
        centroids = lloyd_ref(flat, k, rng, max_iters=codebook.LLOYD_MAX_ITERS,
                              tol=codebook.LLOYD_TOL)
        return centroids, np.stack([traj_dists_ref(flat, c) for c in centroids], axis=1)

    monkeypatch.setattr(codebook, "_lloyd", lloyd)
    monkeypatch.setattr(codebook, "_nearest_rows",
                        lambda d, m: np.argsort(d, axis=1, kind="stable")[:, :m])
    for g, (trajs, *sizes) in zip(got, cases):
        assert g.tobytes() == sample_and_cluster(*trajs, *sizes).tobytes()


def test_group_members_keep_index_order_across_tied_cut():
    # one agent group centred exactly on straight(4.0): rows 1 and 2 are
    # 0.5 m from it and rows 4-7 all 1 m, so the 3-member cut falls inside
    # the tie (a plain argpartition keeps row 5 here)
    base = straight(4.0)
    shifts = [(0, 2), (0, 0.5), (0, -0.5), (0, -2), (0, 1), (0, -1), (1, 0), (-1, 0)]
    agent_rows = np.stack([base + s for s in shifts])
    _, dists = codebook._lloyd(agent_rows.reshape(-1, 12), 1, np.random.default_rng(0))
    assert dists[:, 0].tolist() == [2.0, 0.5, 0.5, 2.0, 1.0, 1.0, 1.0, 1.0]
    ego = [(straight(6.0), cmd) for cmd in COMMANDS for _ in range(3)]
    cb = clustered(*cluster_input(ego, agent_rows), 3, 1, group_size=3, seed=0)
    [g] = group_ids_ref(cb, None)
    assert cb.trajectories[g].tobytes() == agent_rows[[1, 2, 4]].tobytes()
    # the selection against a full stable argsort, on integer distances
    dists = np.random.default_rng(0).integers(0, 6, size=(40, 300)).astype(float)
    for m in (1, 16, 299):
        assert np.array_equal(codebook._nearest_rows(dists, m),
                              np.argsort(dists, axis=1, kind="stable")[:, :m])


def test_insufficient_trajectories_raise_with_counts():
    trajs = cluster_input([(straight(5.0), Command.TURN_LEFT)], [])
    with pytest.raises(BuildError, match="required"):
        sample_and_cluster(*trajs, 3, 1, group_size=4, seed=0)


def test_centered_rows_mean_zero():
    cb = clustered(*corpus(), 6, 4, group_size=8, seed=3)
    centered = cb.trajectories - cb.traj_anchors[:, None, :]
    assert np.max(np.abs(centered.mean(axis=1))) < 1e-9


def test_cluster_stability_same_seed():
    a = clustered(*corpus(), 6, 4, group_size=8, seed=7)
    b = clustered(*corpus(), 6, 4, group_size=8, seed=7)
    assert np.array_equal(a.trajectories, b.trajectories)


def test_bijection_shapes(tiny_model):
    # a model's basis tokens pair one-to-one with its codebook's trajectories
    cb = tiny_model.cb
    assert (tiny_model.tensors["cb.basis"].shape[:2] == cb.trajectories.shape[:2]
            == (cb.n_code, cb.group_size))


def test_admissible_group_counts_default_partition():
    cb = clustered(*corpus(), 6, 4, group_size=8, seed=0)
    assert admissible(cb, list(COMMANDS) + [None]).sum(axis=1).tolist() == [2, 2, 2, 4]
    # rows in any order get the groups of the layout reference
    rng = np.random.default_rng(3)
    commands = [None if k == 3 else COMMANDS[k] for k in rng.integers(4, size=30)]
    masks = admissible(cb, commands)
    assert masks.shape == (30, cb.n_code) and masks.dtype == bool
    for command, mask in zip(commands, masks):
        assert np.flatnonzero(mask).tolist() == group_ids_ref(cb, command)
    assert admissible(cb, []).shape == (0, cb.n_code)


def test_nearest_group_respects_command():
    cb = clustered(*corpus(), 6, 4, group_size=8, seed=0)
    mask = admissible(cb, [Command.TURN_LEFT])
    [gid] = nearest_group(cb, curved(6.0, 0.05).reshape(1, 12), mask)
    assert gid in group_ids_ref(cb, Command.TURN_LEFT)


def test_nearest_group_matches_loop_reference():
    cb = clustered(*corpus(), 6, 4, group_size=8, seed=0)
    rng = np.random.default_rng(4)
    ego, _, agents = corpus(seed=9)
    pool = np.concatenate([ego, agents]).reshape(-1, 12)
    # each bucket's rows around the kernel's rows per block, so that buckets
    # cross one and two block boundaries, the last block short or of one row
    per_block = {cmd: codebook.DIST_BLOCK // len(group_ids_ref(cb, cmd))
                 for cmd in COMMANDS + (None,)}
    extra = dict(zip(COMMANDS + (None,), (-1, 0, 1, per_block[None] + 1)))
    commands = [cmd for cmd, e in extra.items() for _ in range(per_block[cmd] + e)]
    order = rng.permutation(len(commands))
    commands = [commands[i] for i in order]
    trajs = pool[rng.integers(len(pool), size=len(commands))] + rng.normal(
        scale=0.5, size=(len(commands), 12))
    got = nearest_group(cb, trajs, admissible(cb, commands))
    for cmd in extra:  # one bucket at a time, against its anchors
        rows = np.flatnonzero([c is cmd for c in commands])
        ids = np.array(group_ids_ref(cb, cmd))
        dists = traj_dists_ref(trajs[rows, None], cb.traj_anchors[ids])
        assert got[rows].tolist() == ids[np.argmin(dists, axis=1)].tolist()


def test_nearest_group_ignores_nearer_anchor_outside_bucket():
    cb = clustered(*corpus(), 6, 4, group_size=8, seed=0)
    anchors = cb.traj_anchors
    # each row is an anchor of another bucket, labelled as each other bucket
    for g in (0, 2, 4, cb.n_ego):
        for command in COMMANDS + (None,):
            ids = group_ids_ref(cb, command)
            if g in ids:
                continue
            [gid] = nearest_group(cb, anchors[g][None], admissible(cb, [command]))
            dists = [traj_distance(anchors[g].reshape(6, 2), anchors[i].reshape(6, 2))
                     for i in ids]
            assert gid == ids[int(np.argmin(dists))]


@pytest.fixture(scope="module")
def cb_4x3_7():
    """Four ego groups per command and seven agent groups: the fewest that
    triplet selection allows."""
    return clustered(*corpus(), 12, 7, group_size=4, seed=2)


def test_triplet_table_disjoint_and_admissible(cb_4x3_7):
    cb = cb_4x3_7
    positives, negatives = triplet_table(cb)
    assert positives.shape == negatives.shape == (cb.n_code, 3)
    for label, (pos, neg) in enumerate(zip(positives.tolist(), negatives.tolist())):
        assert len(set(pos)) == len(set(neg)) == 3
        assert not set(pos) & set(neg)
        assert label not in pos and label not in neg
        command = command_of_ref(cb, label)
        if command is not None:
            assert all(command_of_ref(cb, p) == command for p in pos)
            assert all(n < cb.n_ego and command_of_ref(cb, n) != command for n in neg)
        else:
            assert all(command_of_ref(cb, g) is None for g in pos + neg)


def shared_anchor_codebook() -> Codebook:
    """12 ego and 9 agent groups whose trajectories repeat three distinct
    groups, so that most candidates tie with another on anchor distance."""
    rng = np.random.default_rng(5)
    distinct = rng.normal(scale=5.0, size=(3, 2, 12))
    return Codebook(distinct[rng.integers(3, size=21)], 12)


@pytest.mark.parametrize("make", [lambda model: model.cb,
                                  lambda model: shared_anchor_codebook()],
                         ids=["tiny", "shared_anchors"])
def test_triplet_table_matches_per_label_reference(tiny_model, make):
    cb = make(tiny_model)
    positives, negatives = triplet_table(cb)
    for label in range(cb.n_code):
        pos, neg = triplet_classes_ref(cb, label)
        assert (positives[label].tolist(), negatives[label].tolist()) == (pos, neg), label


def default_size_codebook(distinct: int | None) -> Codebook:
    """48 ego and 64 agent groups of 16 random trajectories; with
    ``distinct``, drawn from that many groups, so that anchors repeat and
    candidates tie on distance."""
    rng = np.random.default_rng(distinct or 0)
    trajs = rng.normal(scale=5.0, size=(distinct or 112, 16, 12))
    return Codebook(trajs if distinct is None else trajs[rng.integers(distinct, size=112)],
                    48)


@pytest.mark.parametrize("make", [lambda model: model.cb,
                                  lambda model: default_size_codebook(None),
                                  lambda model: shared_anchor_codebook(),
                                  lambda model: default_size_codebook(5)],
                         ids=["tiny", "default", "shared_anchors", "default_shared"])
def test_triplet_table_is_the_whole_table_lexsort(tiny_model, make):
    cb = make(tiny_model)
    got, want = triplet_table(cb), triplet_table_ref(cb)
    assert [a.tobytes() for a in got] == [a.astype(np.intp).tobytes() for a in want]


def test_triplet_table_rejects_small_pools():
    cb = Codebook(np.zeros((9 + 6, 2, 12)), 9)
    with pytest.raises(ValueError, match=r"3 ego groups per command \(need 4\), "
                                         r"6 agent groups \(need 7\)"):
        triplet_table(cb)
