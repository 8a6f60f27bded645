"""Finite rooted directed trees and generators for the studied families."""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain, repeat
from typing import Iterable, Optional

__all__ = [
    "DirectedTree",
    "TreeValidation",
    "generate_path",
    "generate_two_branch",
    "generate_binary",
    "generate_broom",
    "generate_two_level_broom",
    "tree_to_doc",
    "tree_from_doc",
    "validate_tree",
]


# The most vertices a tree may have: its dense complex shift matrix then
# takes at most 1 GiB (8192^2 entries of 16 bytes)
_MAX_VERTICES = 8192


def _check_size(n: int) -> None:
    """Refuse a tree of ``n`` vertices above the bound, before anything of
    it is allocated."""
    if n > _MAX_VERTICES:
        raise ValueError(
            f"a tree of {n} vertices is too large: the bound is {_MAX_VERTICES}, "
            "whose dense complex matrix takes 1 GiB"
        )


def _label_key(label: str):
    # numeric labels ("-2", "1,3") sort by their coordinates, others lexically
    try:
        return (0, tuple(int(part) for part in label.split(",")))
    except ValueError:
        return (1, tuple(label.split(",")))


def _depths(vertices, edges, root: str, index: dict, parent: dict) -> dict[str, int]:
    """The depth of each vertex a search from ``root`` reaches, stepping
    along edges into vertices only.

    When each child ends one edge and every parent comes before its
    children in vertex order, the usual case, each depth is read as its
    parent's plus one; otherwise the search runs level by level."""
    depth: dict[str, int] = {}
    if root not in index:
        return depth
    depth[root] = 0
    if len(parent) == len(edges):
        for v in vertices:
            if v not in depth:
                d = depth.get(parent.get(v))
                if d is None:
                    break
                depth[v] = d + 1
        else:
            return depth
        depth = {root: 0}
    kids: dict[str, list[str]] = {}
    for p, c in edges:
        kids.setdefault(p, []).append(c)
    frontier, d = [root], 0
    while frontier:
        d += 1
        nxt = []
        for v in frontier:
            for c in kids.get(v, ()):
                if c in index and c not in depth:
                    depth[c] = d
                    nxt.append(c)
        frontier = nxt
    return depth


@dataclass(frozen=True)
class DirectedTree:
    """A finite rooted directed tree with a fixed vertex order.

    ``vertices`` fixes the deterministic ordering used as the basis order by
    every shift builder downstream.  The constructor builds only what
    :func:`validate_tree` and :func:`~treeshift.shift.build_shift` read: the
    vertex index, each child's first parent, and the depths of a search
    from the root.  The levels, and the children lists sorted by label, are
    built on first use; neither depths nor levels depend on the children's
    order.
    The constructor is tolerant of malformed data; use :func:`validate_tree`
    to obtain a violation report before trusting a tree from the outside.
    """

    vertices: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]
    root: str
    _parent: dict = field(init=False, repr=False, compare=False)
    _index: dict = field(init=False, repr=False, compare=False)
    _depth: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        vertices = tuple(self.vertices)
        edges = tuple(map(tuple, self.edges))
        index = dict(zip(vertices, range(len(vertices))))
        parent = {c: p for p, c in reversed(edges)}  # each child's first parent
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "_parent", parent)
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_depth", _depths(vertices, edges, self.root, index, parent))

    @functools.cached_property
    def _levels(self) -> tuple[tuple[str, ...], ...]:
        # levels[d] holds the vertices at depth d, in vertex order
        depth = self._depth
        levels: list[list[str]] = [[] for _ in range(max(depth.values(), default=-1) + 1)]
        for v in self.vertices:
            if v in depth:
                levels[depth[v]].append(v)
        return tuple(map(tuple, levels))

    @functools.cached_property
    def _children(self) -> dict[str, tuple[str, ...]]:
        children: dict[str, list[str]] = {v: [] for v in self.vertices}
        for p, c in self.edges:
            children.setdefault(p, []).append(c)
        return {v: tuple(sorted(kids, key=_label_key)) for v, kids in children.items()}

    @classmethod
    def from_edges(
        cls, edges: Iterable[tuple[str, str]], root: Optional[str] = None
    ) -> "DirectedTree":
        """The tree of ``edges``, whose vertices are their ends in order of
        first appearance.  Without ``root``, the one vertex that is no
        edge's child is the root; :class:`ValueError` when there is not
        exactly one."""
        edges = tuple((p, c) for p, c in edges)
        vertices = tuple(dict.fromkeys(end for edge in edges for end in edge))
        if root is None:
            has_parent = {c for _, c in edges}
            candidates = [v for v in vertices if v not in has_parent]
            if len(candidates) != 1:
                raise ValueError(
                    f"cannot infer root: {len(candidates)} parentless vertices"
                )
            root = candidates[0]
        return cls(vertices=vertices, edges=edges, root=root)

    @property
    def n(self) -> int:
        return len(self.vertices)

    @property
    def depth(self) -> int:
        return max(len(self._levels) - 1, 0)

    def index_of(self, v: str) -> int:
        return self._index[v]

    def parent_of(self, v: str) -> Optional[str]:
        return self._parent.get(v)

    def children_of(self, v: str) -> tuple[str, ...]:
        return self._children.get(v, ())

    def depth_of(self, v: str) -> int:
        return self._depth[v]

    def nonroot_vertices(self) -> tuple[str, ...]:
        return tuple(v for v in self.vertices if v != self.root)

    def at_depth(self, d: int) -> tuple[str, ...]:
        return self._levels[d] if 0 <= d < len(self._levels) else ()


@dataclass(frozen=True)
class TreeValidation:
    ok: bool
    violations: tuple[str, ...]


def validate_tree(tree: DirectedTree) -> TreeValidation:
    """Check the rooted-tree axioms on ``tree`` and report every violation.

    Reads the maps the constructor built: a label is a vertex when the index
    holds it, and a vertex is reachable when the constructor's search from
    the root, which steps only through vertices, gave it a depth.  That one
    sweep catches cycles and disconnected pieces.  A tree whose ``n``
    vertices are distinct and all reached, with ``n - 1`` edges into
    distinct children none of which is the root, breaks no axiom: each
    non-root vertex is then the child of exactly one edge, through which the
    search reached it from a vertex.  Any other tree is checked clause by
    clause.
    """
    vertices, index = tree.vertices, tree._index
    n = len(vertices)
    if (
        len(index) == len(tree._depth) == n
        and len(tree.edges) == len(tree._parent) == n - 1
        and tree.root not in tree._parent
    ):
        return TreeValidation(ok=True, violations=())
    violations: list[str] = []
    if len(index) != len(vertices):
        dupes = sorted({v for v in vertices if vertices.count(v) > 1})
        violations.append(f"duplicate vertex labels: {', '.join(dupes)}")
    if tree.root not in index:
        violations.append(f"root {tree.root!r} is not a vertex")
    seen_edges: set[tuple[str, str]] = set()
    for p, c in tree.edges:
        for end in (p, c):
            if end not in index:
                violations.append(f"edge ({p!r}, {c!r}) references unknown vertex {end!r}")
        if (p, c) in seen_edges:
            violations.append(f"duplicate edge ({p!r}, {c!r})")
        seen_edges.add((p, c))
    parents = Counter(c for _, c in seen_edges)
    for c in sorted(c for c, count in parents.items() if count > 1):
        count = "two" if parents[c] == 2 else parents[c]
        violations.append(f"vertex {c} has {count} parents")
    if tree.root in parents:
        violations.append(f"root {tree.root} has a parent")
    if tree.root in index:
        violations += [
            f"vertex {v} not reachable from root" for v in vertices if v not in tree._depth
        ]
    return TreeValidation(ok=not violations, violations=tuple(violations))


def generate_path(n: int) -> DirectedTree:
    """Chain on ``n`` vertices labelled "0".."n-1", rooted at "0"."""
    if n < 1:
        raise ValueError("path needs at least one vertex")
    _check_size(n)
    vertices = tuple(str(i) for i in range(n))
    edges = tuple((str(i), str(i + 1)) for i in range(n - 1))
    return DirectedTree(vertices=vertices, edges=edges, root="0")


def generate_two_branch(kappa: int, theta: int) -> DirectedTree:
    """Trunk of length ``kappa`` into a branching vertex "0" with two equal
    branches of length ``theta``.

    Trunk vertices are "-kappa".."-1", branch vertices "i,j" for i in {1,2}
    and j in 1..theta.  Vertex order: trunk from the root down, "0", branch 1,
    branch 2.
    """
    if kappa < 0 or theta < 1:
        raise ValueError("two-branch tree needs kappa >= 0 and theta >= 1")
    _check_size(kappa + 1 + 2 * theta)
    trunk = [str(-k) for k in range(kappa, 0, -1)]
    vertices = trunk + ["0"]
    for i in (1, 2):
        vertices += [f"{i},{j}" for j in range(1, theta + 1)]
    edges = [(trunk[i], trunk[i + 1]) for i in range(len(trunk) - 1)]
    if trunk:
        edges.append((trunk[-1], "0"))
    for i in (1, 2):
        edges.append(("0", f"{i},1"))
        edges += [(f"{i},{j}", f"{i},{j + 1}") for j in range(1, theta)]
    root = trunk[0] if trunk else "0"
    return DirectedTree(vertices=tuple(vertices), edges=tuple(edges), root=root)


def generate_binary(kappa: int) -> DirectedTree:
    """Full binary tree of depth ``kappa`` >= 2, vertices "k,l" with
    l in 1..2^k, children of "k,l" being "k+1,2l-1" and "k+1,2l"."""
    if kappa < 2:
        raise ValueError("binary tree needs kappa >= 2")
    _check_size(2 ** (min(kappa, 64) + 1) - 1)  # no deeper tree fits either
    vertices = []
    edges = []
    for k in range(kappa + 1):
        for l in range(1, 2**k + 1):
            vertices.append(f"{k},{l}")
            if k < kappa:
                edges.append((f"{k},{l}", f"{k + 1},{2 * l - 1}"))
                edges.append((f"{k},{l}", f"{k + 1},{2 * l}"))
    return DirectedTree(vertices=tuple(vertices), edges=tuple(edges), root="0,1")


def generate_broom(n_teeth: int) -> DirectedTree:
    """Star: root "0" with teeth "1".."n_teeth"."""
    if n_teeth < 1:
        raise ValueError("broom needs at least one tooth")
    _check_size(n_teeth + 1)
    vertices = ("0",) + tuple(str(i) for i in range(1, n_teeth + 1))
    edges = tuple(("0", str(i)) for i in range(1, n_teeth + 1))
    return DirectedTree(vertices=vertices, edges=edges, root="0")


def generate_two_level_broom(n_teeth: int) -> DirectedTree:
    """Root "0", children "1,j", one grandchild "2,j" under each, level-major
    vertex order."""
    if n_teeth < 1:
        raise ValueError("two-level broom needs at least one tooth")
    _check_size(2 * n_teeth + 1)
    vertices = ["0"]
    vertices += [f"1,{j}" for j in range(1, n_teeth + 1)]
    vertices += [f"2,{j}" for j in range(1, n_teeth + 1)]
    edges = [("0", f"1,{j}") for j in range(1, n_teeth + 1)]
    edges += [(f"1,{j}", f"2,{j}") for j in range(1, n_teeth + 1)]
    return DirectedTree(vertices=tuple(vertices), edges=tuple(edges), root="0")


def tree_to_doc(tree: DirectedTree) -> dict:
    return {
        "vertices": list(tree.vertices),
        "root": tree.root,
        "edges": [[p, c] for p, c in tree.edges],
    }


def tree_from_doc(doc: dict) -> DirectedTree:
    """Build a tree from its JSON document, raising ``ValueError`` with the
    offending field or violation message on malformed input."""
    if not isinstance(doc, dict):
        raise ValueError(f"field 'tree' must be a JSON object, got {type(doc).__name__}")
    for key in ("vertices", "root", "edges"):
        if key not in doc:
            raise ValueError(f"tree document missing field {key!r}")
    vertices = doc["vertices"]
    edges = doc["edges"]
    root = doc["root"]
    if not isinstance(vertices, list) or not all(map(isinstance, vertices, repeat(str))):
        raise ValueError("tree document field 'vertices' must be a list of strings")
    if not isinstance(root, str):
        raise ValueError("tree document field 'root' must be a string")
    if not (
        isinstance(edges, list)
        and all(map(isinstance, edges, repeat(list)))
        and all(map((2).__eq__, map(len, edges)))
        and all(map(isinstance, chain.from_iterable(edges), repeat(str)))
    ):
        raise ValueError(
            "tree document field 'edges' must be a list of [parent, child] string pairs"
        )
    tree = DirectedTree(vertices, edges, root)
    report = validate_tree(tree)
    if not report.ok:
        raise ValueError("invalid tree document: " + "; ".join(report.violations))
    return tree
