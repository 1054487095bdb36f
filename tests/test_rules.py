"""Loading a forwarding matrix from its JSON form."""

from __future__ import annotations

import json

import pytest

from failover.metrics import ALL_VARIANTS, build_variant
from failover.rules import PRIMARY, ForwardingMatrix, Match, Output
from failover.topology import generate_erdos_renyi

from conftest import square


def stored(variant: str, n: int = 10, seed: int = 3):
    t = generate_erdos_renyi(n, seed)
    fw = build_variant(t, variant)
    return t, fw, json.loads(json.dumps(fw.to_json()))


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_round_trip(variant):
    t, fw, data = stored(variant)
    again = ForwardingMatrix.from_json(data, t)
    assert again.to_json() == fw.to_json()
    assert again.tables == fw.tables
    assert again.groups == fw.groups


def _first_rule(data, label="primary", action_type=None):
    return next(rule for rule in data["rules"]
                if (label is None or rule["label"] == label)
                and (action_type is None or rule["action"]["type"] == action_type))


def _wrong_n(t, data):
    data["n"] += 1


def _absent_link(t, data):
    u, v = next((u, v) for u in t.nodes for v in t.nodes
                if u < v and t.link_between(u, v) is None)
    _first_rule(data, None, "output")["action"]["link"] = f"{u}-{v}"


def _unknown_label(t, data):
    _first_rule(data, None)["label"] = "bogus:1"


def _unknown_action(t, data):
    _first_rule(data, None)["action"] = {"type": "teleport"}


def _non_incident_output(t, data):
    rule = _first_rule(data, None, "output")
    link = next(link for link in t.links if rule["node"] not in (link.u, link.v))
    rule["action"]["link"] = str(link)


def _missing_primary(t, data):
    data["rules"].remove(_first_rule(data))


def _repeated_rule(t, data):
    # A second rule for the same node and match, with another action.
    rule = _first_rule(data, None, "output")
    link = next(link for link in t.links
                if rule["node"] in (link.u, link.v) and str(link) != rule["action"]["link"])
    data["rules"].append(dict(rule, action={"type": "output", "link": str(link)}))


def _repeated_group(t, data):
    data["groups"].append(dict(data["groups"][-1], buckets=data["groups"][0]["buckets"]))


def _string_group_id(t, data):
    # Rules and group agree on the id, so only its type is wrong.
    group = data["groups"][0]
    for rule in data["rules"]:
        if rule["action"] == {"type": "group", "id": group["id"]}:
            rule["action"] = {"type": "group", "id": str(group["id"])}
    group["id"] = str(group["id"])


def _string_group_node(t, data):
    data["groups"].append(dict(data["groups"][0], id=10**6,
                               node=str(data["groups"][0]["node"])))


def _unreferenced_group(t, data):
    # A copy of a live group under an id no rule names.
    data["groups"].append(dict(data["groups"][0], id=10**6))


def _unreferenced_group_outside(t, data):
    drop = {"watch": None, "action": {"type": "drop"}}
    data["groups"].append({"id": 500, "node": 99, "buckets": [drop, drop]})


SPOILERS = [
    (_wrong_n, "matrix is for 11 nodes, topology has 10"),
    (_absent_link, "absent from topology"),
    (_unknown_label, "unknown label"),
    (_unknown_action, "unknown action type"),
    (_non_incident_output, "outputs on non-incident"),
    (_missing_primary, "no primary rule at node"),
    (_repeated_rule, "two rules at node"),
    (_repeated_group, "two groups with id"),
    (_string_group_id, "ids and nodes must be ints"),
    (_string_group_node, "ids and nodes must be ints"),
    (_unreferenced_group, "group 1000000 at node .* is referenced by no rule"),
    (_unreferenced_group_outside, "group 500 at node 99 is referenced by no rule"),
]

# Rule fields set to a node outside 0..9, for a matrix of ``stored("disjoint-link")``.
OUTSIDE_NODES = [("node", -1), ("node", 10), ("dst", 10), ("dst", "1"), ("src", -1)]


@pytest.mark.parametrize("spoil, message", SPOILERS)
def test_invalid_matrix_is_rejected(spoil, message):
    t, _fw, data = stored("hybrid")
    spoil(t, data)
    with pytest.raises(ValueError, match=message):
        ForwardingMatrix.from_json(data, t)


@pytest.mark.parametrize("field, value", OUTSIDE_NODES)
def test_rule_naming_a_node_outside_the_topology_is_rejected(field, value):
    t, _fw, data = stored("disjoint-link")
    _first_rule(data)[field] = value
    with pytest.raises(ValueError, match="outside 0..9"):
        ForwardingMatrix.from_json(data, t)


def test_a_new_group_takes_an_id_past_every_loaded_one():
    # Without group 0 the file's ids are 1..k: ``len(groups)`` is k, a live id.
    t, _fw, data = stored("per-link")
    first = data["groups"].pop(0)
    for rule in data["rules"]:
        if rule["action"] == {"type": "group", "id": first["id"]}:
            rule["action"] = first["buckets"][0]["action"]
    loaded = ForwardingMatrix.from_json(data, t)
    live = dict(loaded.groups)
    group = live[max(live)]
    ref = loaded.intern_group(group.node, group.buckets[::-1])
    assert ref.group_id == max(live) + 1
    assert {gid: loaded.groups[gid] for gid in live} == live


def test_re_adding_an_equal_action_is_a_no_op():
    t = square()
    fw = ForwardingMatrix("shortest", t.n)
    match, link = Match(PRIMARY, 2), t.link_between(0, 1)
    first = Output(link)
    fw.add_rule(0, match, first)
    fw.add_rule(0, match, Output(link))
    assert fw.tables[0] == {match: first}
    assert fw.tables[0][match] is first


def test_conflicting_re_add_raises_and_keeps_the_first_action():
    t = square()
    fw = ForwardingMatrix("shortest", t.n)
    match, first = Match(PRIMARY, 2), Output(t.link_between(0, 1))
    fw.add_rule(0, match, first)
    with pytest.raises(ValueError, match="conflicting rule at node 0"):
        fw.add_rule(0, match, Output(t.link_between(0, 3)))
    assert fw.tables[0] == {match: first}
    assert fw.tables[0][match] is first
