"""Python's cyclic garbage collector around matrix loads.

``ForwardingMatrix.from_json`` runs with the collector paused and restores
its state afterwards.  That is safe only because a load, like the rest of
the library's matrix work, leaves no reference cycles behind; the last test
pins that precondition.
"""

from __future__ import annotations

import gc
import json
import sys
import threading

import pytest

from failover.cli import main
from failover.dataplane import compile_matrix
from failover.metrics import ALL_VARIANTS, build_variant, measure
from failover.rules import ForwardingMatrix
from failover.topology import (
    generate_erdos_renyi,
    generate_lattice,
    generate_waxman,
    save_topology,
    unit_weights,
)

from test_rules import OUTSIDE_NODES, SPOILERS, _first_rule, stored


@pytest.fixture
def collector():
    """Yields a function that sets the collector on or off; the state the
    test started with is restored afterwards."""
    was_enabled = gc.isenabled()

    def set_enabled(on: bool) -> None:
        (gc.enable if on else gc.disable)()

    yield set_enabled
    set_enabled(was_enabled)


def query_sized() -> tuple:
    """The disjoint-node matrix of a Waxman graph with 49 nodes and 267
    links, the size the benchmark's query workload loads, as JSON data."""
    t = generate_waxman(49, 11)
    assert len(t.links) == 267
    return t, json.loads(json.dumps(build_variant(t, "disjoint-node").to_json()))


@pytest.mark.parametrize("enabled", [True, False])
def test_a_load_leaves_the_collector_as_it_found_it(collector, enabled):
    t, _fw, data = stored("hybrid")
    collector(enabled)
    ForwardingMatrix.from_json(data, t)
    assert gc.isenabled() is enabled


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("spoil", [spoil for spoil, _message in SPOILERS])
def test_a_rejected_load_leaves_the_collector_as_it_found_it(collector, enabled, spoil):
    t, _fw, data = stored("hybrid")
    spoil(t, data)
    collector(enabled)
    with pytest.raises(ValueError):
        ForwardingMatrix.from_json(data, t)
    assert gc.isenabled() is enabled


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("field, value", OUTSIDE_NODES)
def test_a_load_naming_an_outside_node_leaves_the_collector_as_it_found_it(
        collector, enabled, field, value):
    t, _fw, data = stored("disjoint-link")
    _first_rule(data)[field] = value
    collector(enabled)
    with pytest.raises(ValueError):
        ForwardingMatrix.from_json(data, t)
    assert gc.isenabled() is enabled


@pytest.mark.parametrize("enabled", [True, False])
def test_a_load_missing_a_key_leaves_the_collector_as_it_found_it(collector, enabled):
    t, _fw, data = stored("hybrid")
    del _first_rule(data)["label"]
    collector(enabled)
    with pytest.raises(KeyError):
        ForwardingMatrix.from_json(data, t)
    assert gc.isenabled() is enabled


def test_no_collection_runs_during_a_load(collector):
    t, data = query_sized()
    collector(True)
    collections = []

    def count(phase, info):
        if phase == "start":
            collections.append(info["generation"])

    gc.callbacks.append(count)
    try:
        ForwardingMatrix.from_json(data, t)
    finally:
        gc.callbacks.remove(count)
    assert collections == []


def test_simulate_parses_and_loads_its_matrix_without_a_collection(collector, tmp_path, capsys):
    # Counts the collections that start while ``failover simulate`` is inside
    # ``json.load``, ``ForwardingMatrix.loads`` or ``from_json``: the file's
    # parse makes most of the load's objects, so it must run in the same
    # pause as ``from_json``.
    t, data = query_sized()
    topo, matrix = tmp_path / "waxman49.txt", tmp_path / "matrix.json"
    save_topology(t, topo)
    matrix.write_text(json.dumps(data))
    loading = {json.load.__code__, ForwardingMatrix.loads.__func__.__code__,
               ForwardingMatrix.from_json.__func__.__code__}
    collector(True)
    collections = []

    def count(phase, info):
        frame = sys._getframe(1)
        while frame is not None and frame.f_code not in loading:
            frame = frame.f_back
        if phase == "start" and frame is not None:
            collections.append(info["generation"])

    gc.callbacks.append(count)
    try:
        code = main(["simulate", "--topology", str(topo), "--matrix", str(matrix),
                     "--src", "0", "--dst", "48"])
    finally:
        gc.callbacks.remove(count)
    assert code == 0, capsys.readouterr()
    assert gc.isenabled()
    assert collections == []


def test_two_threads_loading_at_once(collector):
    t, data = query_sized()
    expected = ForwardingMatrix.from_json(data, t).to_json()
    collector(True)
    barrier = threading.Barrier(2)
    loaded: list[dict] = []

    def load() -> None:
        barrier.wait(timeout=30)
        loaded.append(ForwardingMatrix.from_json(data, t).to_json())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=load) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert loaded == [expected, expected]
    assert gc.isenabled()


@pytest.mark.parametrize("make", [
    lambda: generate_erdos_renyi(12, 3),
    lambda: unit_weights(generate_lattice(16, 1)),
], ids=["er12", "unit-lattice16"])
def test_matrix_work_leaves_no_reference_cycles(collector, make):
    t = make()
    collector(False)
    gc.collect()
    for variant in ALL_VARIANTS:
        fw = build_variant(t, variant)
        assert gc.collect() == 0, f"build_variant {variant}"
        data = fw.to_json()
        assert gc.collect() == 0, f"to_json {variant}"
        ForwardingMatrix.from_json(data, t)
        assert gc.collect() == 0, f"from_json {variant}"
        compile_matrix(fw, t)
        assert gc.collect() == 0, f"compile_matrix {variant}"
        measure(fw, t, "er")
        assert gc.collect() == 0, f"measure {variant}"
