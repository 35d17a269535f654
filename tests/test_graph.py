"""Graph decoding, density math, depth, and cost — checked against oracles.py."""

from __future__ import annotations

import math
import random

import pytest

from agentdag.dsl import parse_topology
from agentdag.graph import (
    NODE_CAPS,
    EdgeKind,
    cost_estimate,
    decode_topology,
    density_from_counts,
    density_scores,
    n_max_nodes,
)

from conftest import make_doc, random_strict_dag_doc, random_topology
from oracles import cost_oracle, density_oracle, depth_exhaustive

RELTOL = 1e-12


def rel_err(value: float, reference) -> float:
    reference = float(reference)
    if reference == 0.0:
        return abs(value - reference)
    return abs(value - reference) / abs(reference)


class TestNodeCaps:
    def test_mapping(self):
        assert n_max_nodes(1) == 4
        assert n_max_nodes(2) == 7
        assert n_max_nodes(3) == 10
        assert NODE_CAPS == {1: 4, 2: 7, 3: 10}

    @pytest.mark.parametrize("bad", [0, 4, -1, "1", None])
    def test_rejects_unknown_levels(self, bad):
        with pytest.raises((ValueError, TypeError)):
            n_max_nodes(bad)


class TestDensityFrozenValues:
    """Values pinned to 6 significant figures from hand evaluation."""

    def test_three_node_two_edge_two_step_level1(self):
        report = density_from_counts(v_count=3, e_count=2, s=2, difficulty=1)
        assert f"{report.s_node:.6g}" == "0.472367"
        assert f"{report.s_edge:.6g}" == "0.765928"
        assert f"{report.s_depth:.6g}" == "0.333333"
        assert f"{report.s_complex:.6g}" == "10.3559"
        assert report.v_count == 3 and report.e_count == 2 and report.s == 2
        assert report.n_max == 4 and report.difficulty == 1
        oracle = density_oracle(3, 2, 2, 1)
        for key in ("s_node", "s_edge", "s_depth", "s_complex", "raw_density"):
            assert rel_err(getattr(report, key), oracle[key]) <= RELTOL

    def test_four_node_chain_level2(self):
        report = density_from_counts(v_count=4, e_count=3, s=4, difficulty=2)
        assert report.s_depth == 0.0
        assert f"{report.s_complex:.5g}" == "8.8371"

    def test_raw_density_plain_formula(self):
        report = density_from_counts(v_count=3, e_count=2, s=2, difficulty=1)
        assert math.isclose(report.raw_density, 3 + 4 / 3 + 2, rel_tol=1e-15)

    def test_single_node(self):
        report = density_from_counts(v_count=1, e_count=0, s=1, difficulty=1)
        assert report.s_depth == 0.0
        assert report.s_edge == 1.0
        oracle = density_oracle(1, 0, 1, 1)
        assert rel_err(report.s_complex, oracle["s_complex"]) <= RELTOL


class TestDensityRandomOracle:
    def test_random_topologies_match_oracle(self):
        rng = random.Random(1234)
        for _ in range(300):
            doc = random_topology(rng)
            dag = decode_topology(doc, None)
            report = density_scores(dag, doc.difficulty)
            oracle = density_oracle(report.v_count, report.e_count, report.s, doc.difficulty)
            for key in ("s_node", "s_edge", "s_depth", "s_complex", "raw_density"):
                assert rel_err(getattr(report, key), oracle[key]) <= RELTOL

    def test_score_ranges(self):
        rng = random.Random(99)
        for _ in range(200):
            doc = random_topology(rng)
            report = density_scores(decode_topology(doc, None), doc.difficulty)
            assert 0.0 < report.s_node <= 1.0
            assert 0.0 < report.s_edge <= 1.0
            assert 0.0 <= report.s_depth < 1.0
            assert 1.0 < report.s_complex < math.exp(4)
            assert report.v_count >= report.s


class TestCounts:
    def test_counts_from_doc(self):
        doc = make_doc(
            [
                [("a", "planning", [])],
                [("b", "coding", ["a"]), ("c", "algorithmic", ["a"])],
                [("d", "testing", ["b", "c"])],
            ]
        )
        dag = decode_topology(doc, None)
        assert (dag.v_count, dag.e_count, dag.s) == (4, 4, 3)

    def test_cross_turn_refs_count_as_edges(self):
        turn1 = decode_topology(make_doc([[("a", "planning", [])]]), None)
        doc2 = make_doc([[("x", "planning", [])], [("y", "coding", ["x", "a"])]])
        dag2 = decode_topology(doc2, turn1)
        # Declared refs: x->y intra plus a->y cross; the auto self edge for
        # reused ids does not apply (no id overlap) and would not count anyway.
        assert dag2.e_count == 2
        kinds = sorted(edge.kind for edge in dag2.edges)
        assert kinds == [EdgeKind.CROSS_TURN, EdgeKind.INTRA_TURN]

    def test_self_turn_edges_excluded_from_e_count(self):
        turn1 = decode_topology(make_doc([[("a", "planning", [])]]), None)
        doc2 = make_doc([[("a", "planning", [])], [("b", "coding", ["a"])]])
        dag2 = decode_topology(doc2, turn1)
        self_edges = [e for e in dag2.edges if e.kind is EdgeKind.SELF_TURN]
        assert len(self_edges) == 1
        assert self_edges[0].src == "a" and self_edges[0].dst == "a"
        assert dag2.e_count == 1  # only the declared ref b<-a


class TestDecode:
    def test_layers_mirror_steps(self):
        doc = make_doc([[("a", "planning", [])], [("b", "coding", ["a"])]])
        dag = decode_topology(doc, None)
        assert dag.turn == 1
        assert dag.layers == (("a",), ("b",))
        assert dag.nodes["b"].layer == 2
        assert dag.nodes["a"].role == "planning"

    def test_nodes_are_read_only(self):
        dag = decode_topology(make_doc([[("a", "planning", [])]]), None)
        with pytest.raises(TypeError):
            dag.nodes["x"] = dag.nodes["a"]
        with pytest.raises(TypeError):
            del dag.nodes["a"]
        assert list(dag.nodes) == ["a"]

    def test_current_turn_resolution_wins_over_previous(self):
        turn1 = decode_topology(make_doc([[("shared", "planning", [])]]), None)
        doc2 = make_doc([[("shared", "planning", [])], [("b", "coding", ["shared"])]])
        dag2 = decode_topology(doc2, turn1)
        declared = [e for e in dag2.edges if e.dst == "b"]
        assert len(declared) == 1
        assert declared[0].kind is EdgeKind.INTRA_TURN

    def test_turn_counter_increments(self):
        turn1 = decode_topology(make_doc([[("a", "planning", [])]]), None)
        turn2 = decode_topology(make_doc([[("a", "planning", [])]]), turn1)
        assert (turn1.turn, turn2.turn) == (1, 2)

    def test_decode_is_deterministic(self):
        rng = random.Random(7)
        for _ in range(50):
            doc = random_topology(rng)
            assert decode_topology(doc, None) == decode_topology(doc, None)

    def test_sequentiality(self):
        rng = random.Random(21)
        for _ in range(100):
            doc = random_topology(rng)
            dag = decode_topology(doc, None)
            for edge in dag.edges:
                if edge.kind is EdgeKind.INTRA_TURN:
                    assert dag.nodes[edge.src].layer < dag.nodes[edge.dst].layer


class TestLongestPath:
    def test_single_node(self):
        dag = decode_topology(make_doc([[("a", "planning", [])]]), None)
        assert depth_exhaustive(dag) == 1

    def test_chain_depth_equals_layers(self):
        doc = make_doc(
            [
                [("a", "planning", [])],
                [("b", "algorithmic", ["a"])],
                [("c", "coding", ["b"])],
                [("d", "testing", ["c"])],
            ]
        )
        assert depth_exhaustive(decode_topology(doc, None)) == 4

    def test_layer_skip_witness(self):
        # Three layers but every path has two nodes: depth < step count.
        doc = make_doc(
            [
                [("a", "planning", [])],
                [("b", "algorithmic", [])],
                [("c", "coding", ["a", "b"])],
            ]
        )
        dag = decode_topology(doc, None)
        assert dag.s == 3
        assert depth_exhaustive(dag) == 2

    def test_edgeless_multilayer(self):
        # Degenerate but decodable: nothing references anything.
        doc = make_doc([[("a", "planning", [])], [("b", "coding", [])]])
        assert depth_exhaustive(decode_topology(doc, None)) == 1

    def test_in_edge_condition_forces_full_depth(self):
        rng = random.Random(31337)
        for _ in range(120):
            doc = random_strict_dag_doc(rng, in_edge_condition=True)
            dag = decode_topology(doc, None)
            assert depth_exhaustive(dag) == dag.s

    def test_without_condition_depth_bounded_by_layers(self):
        rng = random.Random(777)
        strict_seen = False
        for _ in range(120):
            doc = random_strict_dag_doc(rng, in_edge_condition=False)
            dag = decode_topology(doc, None)
            depth = depth_exhaustive(dag)
            assert depth <= dag.s
            strict_seen = strict_seen or depth < dag.s
        assert strict_seen


class TestCost:
    def test_frozen_total(self):
        doc = make_doc([[("a", "planning", [])], [("b", "coding", ["a"]), ("c", "testing", ["a"])]])
        dag = decode_topology(doc, None)
        est = cost_estimate(dag, prev_v_count=3, message_tokens=100)
        assert est.total == 1600
        assert est.m == 100

    def test_frozen_per_agent(self):
        doc = make_doc([
            [("a", "planning", [])],
            [("b", "coding", ["a"])],
            [("c", "testing", ["a", "b"])],
        ])
        dag = decode_topology(doc, None)
        assert (dag.v_count, dag.e_count) == (3, 3)
        est = cost_estimate(dag, prev_v_count=0, message_tokens=100)
        assert est.per_agent == 600.0

    def test_degenerate_single_agent(self):
        dag = decode_topology(make_doc([[("a", "planning", [])]]), None)
        est = cost_estimate(dag, prev_v_count=0, message_tokens=1)
        assert est.total == 1
        assert est.per_agent == 2.0

    def test_random_against_oracle(self):
        rng = random.Random(5150)
        for _ in range(100):
            doc = random_topology(rng)
            dag = decode_topology(doc, None)
            prev_v = rng.randint(0, 8)
            m = rng.randint(1, 500)
            est = cost_estimate(dag, prev_v_count=prev_v, message_tokens=m)
            total_ref, per_agent_ref = cost_oracle(dag.v_count, dag.e_count, prev_v, m)
            assert rel_err(float(est.total), total_ref) <= RELTOL
            assert rel_err(est.per_agent, per_agent_ref) <= RELTOL


def test_density_requires_known_difficulty():
    doc = parse_topology("difficulty: 1\nsteps:\n  - step: 1\n    agents:\n      - id: a\n        role: planning\n        ref: []\n")
    dag = decode_topology(doc, None)
    with pytest.raises(ValueError):
        density_scores(dag, 9)
