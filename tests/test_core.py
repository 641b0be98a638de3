"""Core types, validation, dataset round-trips, and the tests' reference
trajectory metric."""

from __future__ import annotations

import dataclasses
import json
import re
import zlib

import numpy as np
import pytest

from gptraj import core
from gptraj.core import (COORD_BOUND, Command, SceneRecord, load_dataset, rng_for,
                         save_dataset, scene_rows, validate_record)

from oracles import traj_distance


def straight_traj(speed: float) -> np.ndarray:
    t = 0.5 * np.arange(1, 7)
    return np.stack([speed * t, np.zeros(6)], axis=1)


def make_record(n_agents=1, ego_gt=True, agent_gt=True, **overrides) -> SceneRecord:
    fields = dict(
        scene_id="s0",
        domain_tag="test",
        command=Command.GO_STRAIGHT,
        ego_obs=np.zeros(8),
        agent_obs=[np.zeros(8) for _ in range(n_agents)],
        ego_gt=straight_traj(5.0) if ego_gt else None,
        agent_gt=[straight_traj(4.0) for _ in range(n_agents)] if agent_gt else None,
        agent_footprints=[(4.5, 2.0)] * n_agents,
    )
    fields.update(overrides)
    return SceneRecord(**fields)


def test_wellformed_record_ok():
    assert validate_record(make_record()) == []


def test_wrong_waypoint_count_reported():
    with pytest.raises(ValueError, match=re.escape("ego_gt: waypoint count != 6: shape (5, 2)")):
        dataclasses.replace(make_record(), ego_gt=np.zeros((5, 2)))


def test_scalar_ego_obs_reported_with_known_length():
    with pytest.raises(ValueError, match="^ego_obs must be a vector$"):
        make_record(n_agents=0, ego_obs=np.float64(5.0))


def test_agent_list_length_mismatch_reported():
    rec = make_record(n_agents=2)
    with pytest.raises(ValueError, match="^agent list length mismatch: 2 agent_obs, 1 agent_gt$"):
        dataclasses.replace(rec, agent_gt=rec.agent_gt[:1])


def test_labeled_rows_need_agent_trajectories_only_for_agents():
    # a labeled scene without agents may omit agent_gt, as its JSON may
    rows = scene_rows([make_record(n_agents=0, agent_gt=False), make_record(scene_id="s1")],
                      labeled=True)
    assert rows.gt.shape == (3, 6, 2)
    with pytest.raises(ValueError, match="^scene s2: 1 agent observations but 0 agent "
                                         "trajectories$"):
        scene_rows([make_record(scene_id="s2", agent_gt=False)], labeled=True)


def test_coordinate_bound_and_finiteness():
    too_far = np.full((6, 2), 250.0)
    rec = dataclasses.replace(make_record(), ego_gt=too_far)
    assert any("bound" in e for e in validate_record(rec))
    nan_traj = np.full((6, 2), np.nan)
    rec = dataclasses.replace(make_record(), ego_gt=nan_traj)
    assert any("non-finite" in e for e in validate_record(rec))


def test_traj_distance_identity_and_offset():
    a = straight_traj(5.0)
    assert traj_distance(a, a) == 0.0
    shifted = a + np.array([1.0, 0.0])
    assert traj_distance(a, shifted) == pytest.approx(1.0)


def test_traj_distance_two_speeds_hand_computed():
    a, b = straight_traj(5.0), straight_traj(6.0)
    # point gaps are |6t - 5t| = t for t = 0.5..3.0
    expected = np.mean(0.5 * np.arange(1, 7))
    assert traj_distance(a, b) == pytest.approx(expected)


def test_traj_distance_is_a_metric():
    rng = np.random.default_rng(11)
    for _ in range(200):
        a, b, c = (rng.normal(scale=10, size=(6, 2)) for _ in range(3))
        dab, dba = traj_distance(a, b), traj_distance(b, a)
        assert dab == pytest.approx(dba)
        assert dab >= 0.0
        assert traj_distance(a, a) == 0.0
        assert traj_distance(a, c) <= dab + traj_distance(b, c) + 1e-12


def test_dataset_roundtrip_identity(tmp_path):
    records = [make_record(), make_record(n_agents=0, ego_gt=False, agent_gt=False,
                                          **{"scene_id": "s1"}),
               make_record(n_agents=0, scene_id="s2")]
    path = tmp_path / "data.jsonl"
    save_dataset(records, path)
    loaded = load_dataset(path)
    assert len(loaded) == 3
    assert loaded[0].scene_id == "s0"
    assert np.array_equal(loaded[0].ego_gt, records[0].ego_gt)
    assert loaded[0].agent_gt.shape == (1, 6, 2)
    assert loaded[1].ego_gt is None and loaded[1].agent_gt is None
    assert not loaded[1].labeled
    # a labeled scene without agents keeps an empty agent_gt
    assert loaded[2].labeled and loaded[2].agent_gt.shape == (0, 6, 2)
    assert loaded[2].agent_obs.shape == (0, 8)
    assert loaded[2].agent_footprints.shape == (0, 2)
    # byte-identical re-serialization
    path2 = tmp_path / "data2.jsonl"
    save_dataset(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_schema_version_required(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"scene_id": "x"}\n', encoding="utf-8")
    with pytest.raises(ValueError, match="schema"):
        load_dataset(path)


def test_unknown_keys_rejected(tmp_path):
    rec = make_record()
    d = rec.to_json_dict()
    d["mystery"] = 1
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps(d) + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match="unknown dataset keys"):
        load_dataset(path)


MISSING = object()  # drops the key from the line

# corruptions of a line's fields and the violation they give, with its line
CORRUPTIONS = [
    # the first scene's observation length is the file's, so the odd one out
    # is reported on line 2
    (dict(ego_obs=[0.0] * 6, agent_obs=[[0.0] * 6]), "2: ego_obs length 8 != 6"),
    (dict(ego_gt=[[0.0, 0.0]] * 5), "1: ego_gt: waypoint count != 6"),
    (dict(agent_footprints=[]),
     "1: agent list length mismatch: 1 agent_obs, 0 agent_footprints"),
    (dict(agent_footprints=[[4.5, 2.0, 1.0]]),
     "1: agent_footprints[0] must be a (length, width) pair"),
    # a flat 12-number trajectory is not read as 6 waypoints
    (dict(ego_gt=[0.0] * 12), "1: ego_gt: waypoint count != 6: shape (12,)"),
    (dict(agent_gt=[[0.0] * 12]), "1: agent_gt[0]: waypoint count != 6: shape (12,)"),
    (dict(ego_obs=MISSING), "1: missing dataset keys: ['ego_obs']"),
    (dict(agent_obs=[[0.0] * 8, [0.0] * 6]), "1: agent_obs[1] length mismatch with ego_obs"),
    (dict(agent_gt=[[[0.0, 0.0]] * 6, [[0.0, 0.0]] * 5]),
     "1: agent_gt[1]: waypoint count != 6: shape (5, 2)"),
    (dict(agent_footprints=[[4.5, 2.0], [4.5, 2.0, 1.0]]),
     "1: agent_footprints[1] must be a (length, width) pair"),
    (dict(agent_footprints=4.5), "1: agent_footprints must be a list"),
    (dict(ego_obs=["x"] + [0.0] * 7), "1: ego_obs: could not convert"),
    (dict(ego_gt=None), "1: null dataset values: ['ego_gt']"),
]
CORRUPTION_IDS = ["short_ego_obs", "five_waypoint_ego_gt", "missing_footprint",
                  "three_number_footprint", "flat_ego_gt", "flat_agent_gt", "missing_key",
                  "ragged_agent_obs", "ragged_agent_gt", "ragged_footprints",
                  "scalar_footprints", "non_numeric_ego_obs", "null_ego_gt"]


def corrupted_lines(bad: dict, n: int = 3) -> list[dict]:
    lines = [make_record(scene_id=f"s{i}").to_json_dict() for i in range(n)]
    lines[0] = {k: v for k, v in {**lines[0], **bad}.items() if v is not MISSING}
    return lines


@pytest.mark.parametrize("bad, violation", CORRUPTIONS, ids=CORRUPTION_IDS)
def test_load_validates_records_with_path_and_line(tmp_path, bad, violation):
    lines = corrupted_lines(bad)
    path = tmp_path / "data.jsonl"
    path.write_text("".join(json.dumps(d) + "\n" for d in lines), encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(f"{path}:{violation}")) as e:
        load_dataset(path)
    assert "\n" not in str(e.value)


# the corruptions that a record refuses when built, in memory as on load:
# every shape fault, and a value that is not a number
FIELD_FAULTS = ["five_waypoint_ego_gt", "missing_footprint", "three_number_footprint",
                "flat_ego_gt", "flat_agent_gt", "ragged_agent_obs", "ragged_agent_gt",
                "ragged_footprints", "scalar_footprints", "non_numeric_ego_obs"]


@pytest.mark.parametrize("fault", FIELD_FAULTS)
def test_record_rejects_a_field_fault_as_load_does(fault):
    bad, violation = CORRUPTIONS[CORRUPTION_IDS.index(fault)]
    message = violation.split(": ", 1)[1]  # without the line number
    with pytest.raises(ValueError, match="^" + re.escape(message)) as e:
        dataclasses.replace(make_record(), **bad)
    assert "\n" not in str(e.value)


def write_lines(path, lines: list) -> None:
    """Write dicts as JSON lines and strings as they are."""
    path.write_text("".join((ln if isinstance(ln, str) else json.dumps(ln)) + "\n"
                            for ln in lines), encoding="utf-8")


def numeric_violation() -> dict:
    d = make_record(scene_id="bad").to_json_dict()
    d["ego_gt"][3][1] = 250.0
    return d


@pytest.mark.parametrize("lines, violation", [
    # a record's violation on line 2 is found before line 3 fails to parse
    ([make_record().to_json_dict(), numeric_violation(), "{not json"],
     "2: ego_gt: waypoint coordinate exceeds 200.0 m bound"),
    ([make_record().to_json_dict(), numeric_violation(), "5"],
     "2: ego_gt: waypoint coordinate exceeds 200.0 m bound"),
    # and a line that does not parse comes before a later violation
    ([make_record().to_json_dict(), "{not json", numeric_violation()],
     "2: Expecting property name"),
    ([make_record().to_json_dict(), "[1, 2]", numeric_violation()],
     "2: a scene must be a JSON object, not list"),
    # blank lines are counted
    (["", make_record().to_json_dict(), "  ", "", numeric_violation()],
     "5: ego_gt: waypoint coordinate exceeds 200.0 m bound"),
], ids=["violation_then_bad_json", "violation_then_number", "bad_json_then_violation",
        "list_then_violation", "after_blank_lines"])
def test_load_reports_the_first_fault_in_line_order(tmp_path, lines, violation):
    path = tmp_path / "data.jsonl"
    write_lines(path, lines)
    with pytest.raises(ValueError, match=re.escape(f"{path}:{violation}")):
        load_dataset(path)


@pytest.mark.parametrize("key, value", [
    ("scene_id", 5), ("scene_id", 2.5), ("scene_id", ["a"]), ("scene_id", {"k": 1}),
    ("domain_tag", 7)], ids=["int_id", "float_id", "list_id", "dict_id", "int_tag"])
def test_load_rejects_non_string_ids(tmp_path, key, value):
    # an int id would be written to a selection CSV as "5" and then not be
    # found; a list or dict id is unhashable
    path = tmp_path / "data.jsonl"
    write_lines(path, corrupted_lines({key: value}))
    with pytest.raises(ValueError, match=re.escape(
            f"{path}:1: {key} must be a string, got {value!r}")):
        load_dataset(path)


def test_load_rejects_a_repeated_scene_id(tmp_path):
    # a selection CSV names scenes by id, so two records with one id cannot
    # be told apart; a violation on an earlier line is still reported first
    path = tmp_path / "data.jsonl"
    lines = [make_record(scene_id=sid).to_json_dict() for sid in ("a", "b", "a")]
    write_lines(path, [*lines[:2], "", lines[2]])
    with pytest.raises(ValueError, match=re.escape(f"{path}:4: scene_id a repeats line 1")):
        load_dataset(path)
    write_lines(path, [lines[0], numeric_violation(), lines[0]])
    with pytest.raises(ValueError, match=re.escape(f"{path}:2: ego_gt: waypoint")):
        load_dataset(path)


@pytest.mark.parametrize("text", ["", "\n", "\n  \n\t\n"])
def test_load_empty_and_blank_files(tmp_path, text):
    path = tmp_path / "data.jsonl"
    path.write_text(text, encoding="utf-8")
    assert load_dataset(path) == []


def random_record(rng, k: int) -> SceneRecord:
    n = int(rng.integers(0, 4))
    labeled = k % 3 != 2
    return SceneRecord(
        scene_id=f"r{k}", domain_tag="test", command=Command.GO_STRAIGHT,
        ego_obs=rng.normal(size=8), agent_obs=rng.normal(size=(n, 8)),
        ego_gt=rng.uniform(-COORD_BOUND, COORD_BOUND, (6, 2)) if labeled else None,
        agent_gt=rng.uniform(-COORD_BOUND, COORD_BOUND, (n, 6, 2)) if labeled else None,
        agent_footprints=rng.uniform(0.5, 5.0, (n, 2)))


def test_array_pass_flags_exactly_what_validate_record_rejects():
    rng = np.random.default_rng(7)
    records = [random_record(rng, k) for k in range(120)]
    # every array field of some records gets a bad value, boundary values too
    bad_values = {
        "ego_obs": [np.nan, np.inf, -np.inf],
        "agent_obs": [np.nan, np.inf, -np.inf],
        "ego_gt": [np.nan, np.inf, -np.inf, np.nextafter(COORD_BOUND, np.inf),
                   -COORD_BOUND - 1.0, COORD_BOUND, -COORD_BOUND],
        "agent_gt": [np.nan, -np.inf, np.nextafter(-COORD_BOUND, -np.inf), COORD_BOUND],
        "agent_footprints": [np.nan, np.inf, -np.inf, 0.0, -0.0, -1.0, 5e-324],
    }
    k = 1
    for name, values in bad_values.items():
        for value in values:
            while getattr(records[k], name) is None or getattr(records[k], name).size == 0:
                k += 1
            arr = getattr(records[k], name).copy()
            arr.flat[int(rng.integers(arr.size))] = value
            records[k] = dataclasses.replace(records[k], **{name: arr})
            k += 1
    # and the records of every corruption that still builds a record
    for bad, _ in CORRUPTIONS:
        for d in corrupted_lines(bad, n=2)[::-1]:
            try:
                records.insert(k, SceneRecord.from_json_dict(d))
            except ValueError:
                pass
    want = [bool(validate_record(r, None if i == 0 else 8)) for i, r in enumerate(records)]
    # 20 bad values (bound values and 5e-324 are fine) and the one corrupted
    # record that builds, whose observation length is not the file's
    assert sum(want) == 21
    assert core._invalid_records(records).tolist() == want


def test_save_refuses_non_finite_values(tmp_path):
    path = tmp_path / "data.jsonl"
    good = make_record(scene_id="ok")
    save_dataset([good], path)
    want = path.read_bytes()
    for name in ("ego_obs", "ego_gt", "agent_gt", "agent_footprints"):
        arr = getattr(good, name).copy()
        arr.flat[-1] = np.nan if name == "ego_obs" else np.inf
        bad = dataclasses.replace(good, scene_id="s9", **{name: arr})
        with pytest.raises(ValueError, match=re.escape(f"{path}: scene s9: non-finite value")):
            save_dataset([good, bad], path)
        assert not path.exists()
    # finite values keep their bytes
    save_dataset([good], path)
    assert path.read_bytes() == want


def test_command_serialization_lowercase(tmp_path):
    assert {c.value for c in Command} == {"turn_left", "turn_right", "go_straight"}
    for c in Command:
        assert c.value == c.value.lower()
        assert Command(c.value) is c
    d = make_record().to_json_dict()
    d["command"] = "reverse"
    path = tmp_path / "data.jsonl"
    path.write_text(json.dumps(d) + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match=f"{re.escape(str(path))}:1: .*'reverse'"):
        load_dataset(path)


def test_rng_streams_are_stable_and_distinct():
    a = rng_for(3, "dataset", 0).normal(size=4)
    b = rng_for(3, "dataset", 0).normal(size=4)
    c = rng_for(3, "dataset", 1).normal(size=4)
    d = rng_for(3, "other", 0).normal(size=4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


@pytest.mark.parametrize("seed", [0, -1, 2**31, 2**32 - 1])
def test_rng_for_is_the_stream_of_the_list_form(seed):
    # the uint32-array entropy seeds the stream that default_rng gives the
    # list of the seed and keys as 32-bit words, at the words' extremes
    for keys in ((), (2**31,), (2**32 - 1,), ("scene", 2**31, 2**32 - 1)):
        words = [seed & 0xFFFFFFFF] + [zlib.crc32(k.encode()) if isinstance(k, str) else k
                                       for k in keys]
        got, want = rng_for(seed, *keys), np.random.default_rng(words)
        assert got.bit_generator.state == want.bit_generator.state
        assert got.random(4).tobytes() == want.random(4).tobytes()
