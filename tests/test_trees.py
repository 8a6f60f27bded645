import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treeshift import (
    DirectedTree,
    generate_binary,
    generate_broom,
    generate_path,
    generate_two_branch,
    generate_two_level_broom,
    tree_from_doc,
    tree_to_doc,
    validate_tree,
)


def leaves(t):
    return tuple(v for v in t.vertices if not t.children_of(v))


def branching(t):
    return tuple(v for v in t.vertices if len(t.children_of(v)) >= 2)


def steps_to_root(t, v):
    steps = 0
    while (v := t.parent_of(v)) is not None:
        steps += 1
    return steps


def test_path_shape():
    t = generate_path(4)
    assert t.vertices == ("0", "1", "2", "3")
    assert t.root == "0"
    assert t.depth == 3
    assert t.parent_of("3") == "2"
    assert leaves(t) == ("3",)
    assert branching(t) == ()


def test_path_single_vertex():
    t = generate_path(1)
    assert t.n == 1
    assert t.depth == 0
    assert leaves(t) == ("0",)


def test_two_branch_shape():
    t = generate_two_branch(1, 2)
    assert t.n == 6
    # trunk -1 -> 0, then two arms of length 2 below 0
    assert t.root == "-1"
    assert t.children_of("0") == ("1,1", "2,1")
    assert t.parent_of("1,2") == "1,1"
    assert t.parent_of("2,2") == "2,1"
    assert t.depth == 3
    assert branching(t) == ("0",)
    assert sorted(leaves(t)) == ["1,2", "2,2"]


def test_two_branch_no_trunk():
    t = generate_two_branch(0, 1)
    assert t.n == 3
    assert t.root == "0"
    assert t.children_of("0") == ("1,1", "2,1")


def test_two_branch_rejects_bad_sizes():
    with pytest.raises(ValueError):
        generate_two_branch(-1, 2)
    with pytest.raises(ValueError):
        generate_two_branch(1, 0)


def test_binary_shape():
    t = generate_binary(2)
    assert t.n == 7
    assert t.root == "0,1"
    assert t.children_of("0,1") == ("1,1", "1,2")
    assert t.children_of("1,2") == ("2,3", "2,4")
    assert t.depth == 2
    assert len(leaves(t)) == 4
    assert len(t.at_depth(1)) == 2
    assert len(t.at_depth(2)) == 4


def test_binary_counts():
    for kappa in range(2, 5):
        t = generate_binary(kappa)
        assert t.n == 2 ** (kappa + 1) - 1
        assert len(leaves(t)) == 2 ** kappa
    with pytest.raises(ValueError):
        generate_binary(1)


def test_broom_shape():
    t = generate_broom(4)
    assert t.n == 5
    assert t.root == "0"
    assert t.children_of("0") == ("1", "2", "3", "4")
    assert t.depth == 1


def test_two_level_broom_shape():
    t = generate_two_level_broom(3)
    assert t.n == 7
    assert t.children_of("0") == ("1,1", "1,2", "1,3")
    assert t.parent_of("2,2") == "1,2"
    assert t.depth == 2
    assert t.at_depth(2) == ("2,1", "2,2", "2,3")


def test_child_order_is_numeric_not_lexicographic():
    t = generate_broom(12)
    kids = t.children_of("0")
    assert kids == tuple(str(i) for i in range(1, 13))


def test_from_edges_infers_root_and_order():
    t = DirectedTree.from_edges([("a", "b"), ("a", "c"), ("c", "d")])
    assert t.root == "a"
    assert t.vertices == ("a", "b", "c", "d")
    assert t.children_of("a") == ("b", "c")


def test_from_edges_ambiguous_root():
    with pytest.raises(ValueError, match="cannot infer root"):
        DirectedTree.from_edges([("a", "b"), ("c", "d")])


def test_validate_clean_tree():
    report = validate_tree(generate_binary(2))
    assert report.ok
    assert report.violations == ()


def test_validate_duplicate_vertex():
    report = validate_tree(DirectedTree(["0", "1", "1"], [("0", "1")], "0"))
    assert not report.ok
    assert any("duplicate" in v for v in report.violations)


def test_validate_unknown_endpoint():
    report = validate_tree(DirectedTree(["0", "1"], [("0", "2")], "0"))
    assert not report.ok
    assert any("unknown" in v for v in report.violations)


def test_validate_two_parents():
    report = validate_tree(DirectedTree(["0", "1", "2"], [("0", "2"), ("1", "2"), ("0", "1")], "0"))
    assert not report.ok
    assert any("parent" in v for v in report.violations)


def test_validate_unreachable_vertex():
    report = validate_tree(DirectedTree(["0", "1", "2"], [("0", "1")], "0"))
    assert not report.ok
    assert any("reachable" in v for v in report.violations)


def test_validate_root_with_parent():
    report = validate_tree(DirectedTree(["0", "1"], [("1", "0"), ("0", "1")], "0"))
    assert not report.ok


# violation reports copied from the two-pass checker this one replaced, which
# built its own parent and children maps and searched from the root itself
GOLDEN_VIOLATIONS = {
    "unknown-label-on-a-path": (
        (["0", "2"], [("0", "9"), ("9", "2")], "0"),
        ("edge ('0', '9') references unknown vertex '9'",
         "edge ('9', '2') references unknown vertex '9'",
         "vertex 2 not reachable from root"),
    ),
    "two-parents-and-a-cycle": (
        (["0", "1", "2", "3", "4"],
         [("0", "1"), ("0", "2"), ("1", "2"), ("3", "4"), ("4", "3")], "0"),
        ("vertex 2 has two parents",
         "vertex 3 not reachable from root",
         "vertex 4 not reachable from root"),
    ),
    "three-parents": (
        (["0", "1", "2", "3"], [("0", "1"), ("0", "3"), ("1", "3"), ("2", "3")], "0"),
        ("vertex 3 has 3 parents", "vertex 2 not reachable from root"),
    ),
    "duplicate-labels-missing-root": (
        (["1", "1", "2", "3"], [("1", "2")], "0"),
        ("duplicate vertex labels: 1", "root '0' is not a vertex"),
    ),
    "duplicate-label-unreachable": (
        (["0", "1", "1"], [], "0"),
        ("duplicate vertex labels: 1",
         "vertex 1 not reachable from root",
         "vertex 1 not reachable from root"),
    ),
    "root-with-a-parent": (
        (["0", "1"], [("0", "1"), ("1", "0")], "0"),
        ("root 0 has a parent",),
    ),
    "duplicate-edge": (
        (["0", "1"], [("0", "1"), ("0", "1")], "0"),
        ("duplicate edge ('0', '1')",),
    ),
}


@pytest.mark.parametrize("case", sorted(GOLDEN_VIOLATIONS))
def test_validate_reports_the_golden_violations(case):
    data, violations = GOLDEN_VIOLATIONS[case]
    report = validate_tree(DirectedTree(*data))
    assert (report.ok, report.violations) == (False, violations)


def test_search_from_the_root_steps_only_through_vertices():
    tree = DirectedTree(("0", "2"), (("0", "9"), ("9", "2")), "0")
    assert tree.depth_of("0") == 0
    for label in ("9", "2"):
        with pytest.raises(KeyError):
            tree.depth_of(label)


def test_doc_round_trip():
    t = generate_two_branch(2, 3)
    doc = tree_to_doc(t)
    assert doc["root"] == "-2"
    back = tree_from_doc(doc)
    assert back == t


def test_doc_rejects_missing_field():
    with pytest.raises(ValueError, match="root"):
        tree_from_doc({"vertices": ["0"], "edges": []})


@pytest.mark.parametrize("doc, kind", [(5, "int"), ([["0", "1"]], "list")])
def test_doc_rejects_a_document_that_is_no_object(doc, kind):
    # an int used to escape as a TypeError from the first field lookup
    with pytest.raises(ValueError, match=f"^field 'tree' must be a JSON object, got {kind}$"):
        tree_from_doc(doc)


@pytest.mark.parametrize("edges", [
    ["ab", "bc"], {"ab": 0}, [[1, 2]], [["a", "b", "c"]], [("a", "b")], "ab", None,
], ids=["strings", "dict", "ints", "triple", "tuple", "string", "none"])
def test_doc_rejects_edges_that_are_no_string_pairs(edges):
    # the first three were read as a->b->c, by the dict's keys, and as the
    # vertices "1" and "2", and accepted
    vertices = ["1", "2"] if edges == [[1, 2]] else ["a", "b", "c"]
    doc = {"vertices": vertices, "edges": edges, "root": vertices[0]}
    message = "tree document field 'edges' must be a list of [parent, child] string pairs"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        tree_from_doc(doc)


def test_doc_rejects_invalid_tree():
    with pytest.raises(ValueError, match="unknown"):
        tree_from_doc({"vertices": ["0"], "edges": [["0", "9"]], "root": "0"})


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=8), st.randoms(use_true_random=False))
def test_vertex_order_fixed_under_edge_shuffle(n, rnd):
    base = generate_binary(3) if n > 6 else generate_path(n)
    edges = list(base.edges)
    rnd.shuffle(edges)
    rebuilt = DirectedTree(vertices=base.vertices, edges=tuple(edges), root=base.root)
    assert rebuilt.vertices == base.vertices
    for v in base.vertices:
        assert rebuilt.children_of(v) == base.children_of(v)
        assert rebuilt.depth_of(v) == base.depth_of(v)


def test_generators_refuse_a_tree_over_the_vertex_bound():
    # 8192 vertices is the largest tree whose dense complex matrix fits in
    # 1 GiB; each generator counts its tree before it builds a label
    for make in (
        lambda: generate_path(8193),
        lambda: generate_two_branch(0, 4096),
        lambda: generate_binary(13),
        lambda: generate_binary(10**9),
        lambda: generate_broom(8192),
        lambda: generate_two_level_broom(4096),
    ):
        with pytest.raises(ValueError, match="is too large: the bound is 8192,"):
            make()
    sizes = [generate_path(8192).n, generate_two_branch(1, 4095).n, generate_binary(12).n,
             generate_broom(8191).n, generate_two_level_broom(4095).n]
    assert sizes == [8192, 8192, 8191, 8192, 8191]


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_depths_and_levels_do_not_depend_on_the_vertex_order(seed):
    # depths are read off the parents when every parent comes first in
    # vertex order, and found by a search from the root otherwise; both
    # give each vertex the length of its path from the root
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 30))
    edges = [(str(int(rng.integers(v))), str(v)) for v in range(1, n)]
    labels = [str(v) for v in range(n)]
    for order in (labels, [labels[i] for i in rng.permutation(n)]):
        t = DirectedTree(tuple(order), tuple(edges), "0")
        assert validate_tree(t).ok
        depth = {v: steps_to_root(t, v) for v in order}
        assert {v: t.depth_of(v) for v in order} == depth
        assert [list(t.at_depth(d)) for d in range(t.depth + 1)] == [
            [v for v in order if depth[v] == d] for d in range(max(depth.values()) + 1)
        ]
