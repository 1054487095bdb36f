"""The rule model's value types: labels, links and actions are tuples that
compare and hash by value, and a matrix shares one ``GroupRef`` per group."""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import pickle

import pytest

from failover.metrics import ALL_VARIANTS, build_variant
from failover.rules import (
    PRIMARY,
    Bucket,
    Drop,
    ForwardingMatrix,
    GroupRef,
    Match,
    Output,
    PopLabelOutput,
    PushLabelOutput,
    RewriteLabelOutput,
    any_link_fail_to,
    link_fail,
    node_fail,
)
from failover.topology import Link, generate_erdos_renyi, generate_waxman

from conftest import oracle_corpus, square
from test_protect import DIFFERENTIAL_CORPUS

# Every variant optimized, plus the protection variants unoptimized.
BUILDS = [(v, True) for v in ALL_VARIANTS] + [(v, False) for v in ALL_VARIANTS[:3]]
BUILD_IDS = [f"{v}{'' if opt else '-unoptimized'}" for v, opt in BUILDS]

LINK = Link(0, 1, 1.0)
LABEL = link_fail(0, 1)


def one_of_each_kind() -> list:
    """One action of each kind, built from the same link and label."""
    return [Output(LINK), PushLabelOutput(LABEL, LINK), PopLabelOutput(LINK),
            RewriteLabelOutput(LABEL, LINK), GroupRef(1), Drop()]


@pytest.mark.parametrize("a, b", itertools.combinations(one_of_each_kind(), 2),
                         ids=lambda action: type(action).__name__)
def test_actions_of_different_kinds_are_unequal_and_hash_apart(a, b):
    assert a != b and b != a
    assert hash(a) != hash(b)
    assert len({a: 1, b: 2}) == 2


def test_actions_of_one_kind_compare_by_value():
    for a, b in zip(one_of_each_kind(), one_of_each_kind()):
        assert a == b and hash(a) == hash(b) and a is not b
    assert Output(LINK) != Output(Link(1, 2, 1.0))
    assert PushLabelOutput(LABEL, LINK) != PushLabelOutput(node_fail(1), LINK)


def test_every_value_is_true():
    # Tuples are false only when empty; a rule's action is tested with ``if``.
    for value in one_of_each_kind() + [LINK, PRIMARY, LABEL]:
        assert value


def test_intern_group_keeps_buckets_that_differ_only_in_action_kind():
    t = square()
    fw = ForwardingMatrix("per-link", t.n)
    a, b = t.link_between(0, 1), t.link_between(0, 3)
    label = link_fail(0, 1)
    pairs = [
        (Output(b), PopLabelOutput(b)),
        (PushLabelOutput(label, b), RewriteLabelOutput(label, b)),
    ]
    refs = []
    for first, second in pairs:
        refs.append(fw.intern_group(0, (Bucket(a, Output(a)), Bucket(b, first))))
        refs.append(fw.intern_group(0, (Bucket(a, Output(a)), Bucket(b, second))))
    assert [ref.group_id for ref in refs] == [0, 1, 2, 3]
    assert fw.intern_group(0, (Bucket(a, Output(a)), Bucket(b, PopLabelOutput(b)))) is refs[1]


def test_add_rule_sees_a_conflict_between_kinds():
    t = square()
    fw = ForwardingMatrix("per-link", t.n)
    link = t.link_between(0, 1)
    fw.add_rule(0, Match(link_fail(0, 3), 2), Output(link))
    with pytest.raises(ValueError, match="conflicting rule at node 0"):
        fw.add_rule(0, Match(link_fail(0, 3), 2), PopLabelOutput(link))


def group_refs_by_id(fw: ForwardingMatrix) -> dict[int, set[int]]:
    """The ids of the ``GroupRef`` objects that ``fw``'s rules hold, per group id."""
    objects: dict[int, set[int]] = {}
    for table in fw.tables:
        for action in table.values():
            if isinstance(action, GroupRef):
                objects.setdefault(action.group_id, set()).add(id(action))
    return objects


@pytest.mark.parametrize("variant, optimized", BUILDS, ids=BUILD_IDS)
def test_a_matrix_holds_one_group_ref_per_group(variant, optimized):
    t = generate_erdos_renyi(12, 5)
    fw = build_variant(t, variant, optimized)
    loaded = ForwardingMatrix.from_json(json.loads(json.dumps(fw.to_json())), t)
    for matrix in (fw, loaded):
        objects = group_refs_by_id(matrix)
        assert objects and set(objects) == set(matrix.groups)
        assert all(len(ids) == 1 for ids in objects.values())
        for gid, (ref_id,) in objects.items():
            assert id(matrix.group_refs[gid]) == ref_id
        # A later intern of an existing group hands out the same object.
        gid = min(matrix.groups)
        group = matrix.groups[gid]
        assert id(matrix.intern_group(group.node, group.buckets)) in objects[gid]


def test_link_normalises_its_endpoints():
    link = Link(5, 2, 0.5)
    assert (link.u, link.v, link.weight) == (2, 5, 0.5)
    assert link == Link(2, 5, 0.5) and hash(link) == hash((2, 5, 0.5))
    assert link.pair == (2, 5) and str(link) == "2-5"
    assert link.other(5) == 2 and link.other(2) == 5
    assert type(link) is Link and repr(link) == "Link(u=2, v=5, weight=0.5)"


@pytest.mark.parametrize("args, message", [
    ((3, 3, 1.0), "self-loop at node 3"),
    ((4, 1, math.nan), "non-finite weight nan on link 1-4"),
    ((0, 2, math.inf), "non-finite weight inf on link 0-2"),
    ((2, 0, -1.0), "negative weight -1.0 on link 0-2"),
])
def test_link_rejects_self_loops_and_bad_weights(args, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        Link(*args)


def test_label_hash_is_that_of_its_fields():
    label = link_fail(3, 4)
    assert hash(label) == hash(("link", 3, 4))
    assert hash(PRIMARY) == hash(("primary", -1, -1))


def test_labels_order_by_sort_key_under_every_operator():
    labels = [any_link_fail_to(2), node_fail(1), link_fail(2, 0), PRIMARY, link_fail(0, 2),
              any_link_fail_to(0), node_fail(3)]
    expected = sorted(labels, key=lambda label: label.sort_key())
    assert expected[0] is PRIMARY and expected[-1] == any_link_fail_to(2)
    assert sorted(labels) == expected
    assert sorted(labels, reverse=True) == expected[::-1]
    for a, b in itertools.product(labels, repeat=2):
        ka, kb = a.sort_key(), b.sort_key()
        assert (a < b, a <= b, a > b, a >= b) == (ka < kb, ka <= kb, ka > kb, ka >= kb), (a, b)
    assert min(labels) is PRIMARY and max(labels) == any_link_fail_to(2)


@pytest.mark.parametrize("variant, optimized", BUILDS, ids=BUILD_IDS)
def test_a_matrix_survives_pickle(variant, optimized):
    # ``run_experiment`` with ``jobs > 1`` moves values between processes.
    t = generate_waxman(16, 3)
    fw = build_variant(t, variant, optimized)
    again = pickle.loads(pickle.dumps(fw))
    assert again.to_json() == fw.to_json()
    assert again.tables == fw.tables and again.groups == fw.groups
    objects = group_refs_by_id(again)
    assert all(len(ids) == 1 for ids in objects.values())
    assert pickle.loads(pickle.dumps(t)).links == t.links


# SHA-256 of ``json.dumps(to_json(), sort_keys=True)`` of every build in
# ``BUILDS``, graph by graph, as the rule model made of frozen dataclasses
# wrote them.  The tuple types must not move a byte.
JSON_DIGESTS = {
    "er16": "bbf52784943ea893175d83f1874723cb99aa79215031983769e9122fd5b193e4",
    "er16-unit": "52ad7620fdb432dff166f1e330e00d0e5a1847a576b967e3bc8adbff985e723e",
    "lattice25-unit": "efea10d6b0e4c3b04d33da874b4cdc08c6416f258e15159d238388d652f35cd2",
    "lattice64-unit": "1154ee7a2c9abb3231b1fe024d434354d9743100a2c3e81b94814c6e33662130",
    "waxman25": "6d7444b4d6842a1332afe210c5d6c927abf5fbe074b627ce1a3369989361a191",
    "oracle-corpus": "71f94225dababcf2f7d9da5b30fd29adbd2689820683d46d6f774a9b73f1e9d9",
}


@pytest.mark.parametrize("name", sorted(JSON_DIGESTS))
def test_matrix_json_is_unchanged(name):
    graphs = ([t for _name, t in oracle_corpus()] if name == "oracle-corpus"
              else [DIFFERENTIAL_CORPUS[name]()])
    digest = hashlib.sha256()
    for t in graphs:
        for variant, optimized in BUILDS:
            fw = build_variant(t, variant, optimized)
            digest.update(json.dumps(fw.to_json(), sort_keys=True).encode())
    assert digest.hexdigest() == JSON_DIGESTS[name]
