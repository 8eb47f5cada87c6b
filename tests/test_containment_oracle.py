"""``containment_check`` against the tree-only rule it refines: every inner
ball's nearest outer center, found by a KD-tree, must hold it dilated by the
slack.  The lattice decision may only move work off the tree, so both the
answer and the count of balls decided on the lattice are pinned."""
import importlib
import logging
import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from synspec import (
    BallUnion,
    GridSpec,
    containment_check,
    dilate,
    random_almost_commuting,
    synthetic_spectrum,
)

sweep_module = importlib.import_module("synspec.synthetic_spectrum")


def reference_contains(pts, r, outer, slack):
    """The tree-only rule, on a tree of its own."""
    if pts.shape[0] == 0:
        return True
    if outer.is_empty:
        return False
    d, _ = cKDTree(outer.centers).query(pts)
    return bool((d + r <= outer.eta + slack + 1e-9).all())


def reference_decided(pts, r, outer, slack):
    """Balls whose nearest grid node lies in the grid and holds an outer
    center that fits them 1e-12 inside the limit.  Only ``from_nodes``
    unions have a grid, and their centers are their nodes over k."""
    g = outer.grid
    if g is None or g.point_count >= 2 ** 62:
        return 0
    with np.errstate(over="ignore"):
        nodes = np.round(pts * g.k)
    held = set(map(tuple, outer.centers))
    c = nodes / g.k
    sel = np.array([np.abs(q).max() <= g.m_max and tuple(x) in held
                    for q, x in zip(nodes, c)], dtype=bool)
    diff = pts[sel] - c[sel]
    d = np.sqrt(np.einsum("ij,ij->i", diff, diff))
    return int((d + r <= outer.eta + slack + 1e-9 - 1e-12).sum())


class LoggedCounts(logging.Handler):
    """The (inner, decided, queried) of each containment DEBUG line."""

    def __init__(self):
        super().__init__(logging.DEBUG)
        self.counts = []

    def emit(self, record):
        if record.msg.startswith("containment"):
            self.counts.append(record.args)

    def __enter__(self):
        self.level = sweep_module.log.level
        sweep_module.log.setLevel(logging.DEBUG)
        sweep_module.log.addHandler(self)
        return self

    def __exit__(self, *exc):
        sweep_module.log.removeHandler(self)
        sweep_module.log.setLevel(self.level)


def unit_rows(rng, count, n):
    u = rng.standard_normal((count, n))
    return u / np.linalg.norm(u, axis=1, keepdims=True)


def draw_case(n, data):
    """(inner, pts, r, outer, slack) for one corpus case."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    g = GridSpec.create(n, data.draw(st.sampled_from([0.5, 1.0, 2.0])),
                        data.draw(st.floats(0.05, 0.5)))
    m, k = g.m_max, g.k
    # outer: the nodes of a box around a base node, thinned; a base on the
    # grid's edge puts nodes outside it, which some hand-built cases keep
    edge = rng.random(n) < 0.3
    base = np.where(edge, rng.choice([-m, m], n), rng.integers(-m, m + 1, n))
    w = int(rng.integers(0, 4))
    box = np.stack(np.meshgrid(*[np.arange(-w, w + 1)] * n, indexing="ij"),
                   axis=-1).reshape(-1, n)
    nodes = base + box
    nodes = nodes[rng.random(len(nodes)) < data.draw(
        st.sampled_from([1.0, 1.0, 0.7, 0.3, 0.0]))]
    if data.draw(st.booleans()):
        nodes = nodes[(np.abs(nodes) <= m).all(axis=1)]
    jitter = data.draw(st.booleans())  # off the lattice by less than 1e-9
    eta = g.eta + data.draw(st.sampled_from([0.0, 0.0, 0.03, 0.2]))
    if (data.draw(st.sampled_from([True, True, True, False])) and not jitter
            and (np.abs(nodes) <= m).all()):
        outer = BallUnion.from_nodes(g, eta, nodes)
    else:  # hand-built: no grid, so every ball takes the tree
        centers = nodes / k
        if jitter:
            centers = centers + rng.uniform(-0.9e-9, 0.9e-9, centers.shape) / k
        outer = BallUnion(n, eta, centers)
    slack = data.draw(st.sampled_from([0.0, 0.0, 0.01, 0.1]))

    # inner: points (radius 0) or balls near the outer nodes, maybe off the grid
    r = data.draw(st.sampled_from([0.0, 0.0, 0.01, 0.05, g.eta, 0.3]))
    count = int(rng.integers(0, 12))
    pts = (base + rng.integers(-w - 1, w + 2, (count, n))) / k
    kind = data.draw(st.sampled_from(
        ["lattice", "jitter", "other_lattice", "tangent", "far"]))
    if kind == "jitter":
        pts = pts + rng.uniform(-0.9e-9, 0.9e-9, pts.shape) / k
    elif kind == "other_lattice":
        k2 = GridSpec.create(n, 1.0, data.draw(st.floats(0.05, 0.5))).k
        pts = np.round(pts * k2) / k2
    elif kind == "far":
        scale = data.draw(st.sampled_from([1.5, 1e3, 1e12, 1e300]))
        pts = pts * np.where(rng.random((count, 1)) < 0.5, scale, 1.0)
    elif kind == "tangent" and outer.centers.shape[0]:
        # at -1e-13, 0 or +1e-13 from the limit of an outer center
        c = outer.centers[rng.integers(0, outer.centers.shape[0], count)]
        t = eta + slack + 1e-9 - r + rng.choice([-1e-13, 0.0, 1e-13], (count, 1))
        pts = c + t * unit_rows(rng, count, n)
    if r == 0.0:
        return pts, pts, r, outer, slack
    if kind != "far" and data.draw(st.booleans()):
        # a dilated union on the outer's lattice, its nodes past the grid cut
        q = np.round(pts * k).astype(int)
        inner = dilate(BallUnion.from_nodes(
            g, r, q[(np.abs(q) <= m).all(axis=1)]), 0.02)
    else:
        inner = BallUnion(n, r, pts)
    return inner, inner.centers, inner.eta, outer, slack


@settings(deadline=None, derandomize=True, max_examples=600)
@given(st.integers(1, 3), st.data())
def test_equals_tree_rule(n, data):
    inner, pts, r, outer, slack = draw_case(n, data)
    with LoggedCounts() as log:
        got = containment_check(inner, outer, slack)
    assert got == reference_contains(pts, r, outer, slack)
    if pts.shape[0] == 0 or outer.is_empty:
        assert log.counts == []
        return
    decided = reference_decided(pts, r, outer, slack)
    assert log.counts == [(pts.shape[0], decided, pts.shape[0] - decided)]
    assert ("tree" in outer.__dict__) == (decided < pts.shape[0])


def test_criterion_1_pairs_decided_without_a_tree():
    for t in (0, 1, 2):  # n = 1, 2, 3, as criterion 1 draws them
        n = 1 + t % 3
        dim = int(np.random.default_rng(10_000 + t).integers(
            2, 25 if n == 3 else 41))
        T = random_almost_commuting(n, dim, 1e-2, 10_000 + t)
        half, small = (synthetic_spectrum(T, eta, grid_cap=2 ** 26)
                       for eta in (0.05, 0.1))
        big = synthetic_spectrum(T, 0.2)
        pairs = [(small, big), (dilate(half, 0.05), big)]
        with LoggedCounts() as log:
            assert all(containment_check(a, b, 0.0) for a, b in pairs)
        assert log.counts == [(a.centers.shape[0],) * 2 + (0,) for a, _ in pairs]
        assert "tree" not in big.__dict__


def test_lattice_needs_fewer_than_2_62_nodes():
    g = GridSpec.create(3, 1.0, 1e-6)
    assert g.point_count >= 2 ** 62
    outer = BallUnion.from_nodes(g, g.eta, np.zeros((1, 3), dtype=int))
    assert outer.lattice is None
    pts = np.array([[0.0, 0.0, 0.0], [1 / g.k, 0.0, 0.0], [2e-6, 0.0, 0.0]])
    with LoggedCounts() as log:
        got = [containment_check(p[None], outer, 0.0) for p in pts]
    assert got == [True, True, False]
    assert log.counts == [(1, 0, 1)] * 3


def test_nodes_outside_the_grid_stay_undecided():
    g = GridSpec.create(2, 1.0, 1e-6)
    assert g.point_count < 2 ** 62
    edge = g.m_max / g.k
    outer = BallUnion.from_nodes(g, g.eta, [[g.m_max, 0]])
    assert outer.centers[0, 0] == edge and outer.lattice.size == 1
    # one node past the edge lies within eta of the edge center, but rounds
    # off the grid; the far points would overflow an unclipped integer cast
    pts = np.array([[edge, 0.0], [(g.m_max + 1) / g.k, 0.0], [1e20, 0.0],
                    [-1e300, 1e300]])
    with warnings.catch_warnings(), LoggedCounts() as log:
        warnings.simplefilter("error")
        got = [containment_check(p[None], outer, 0.0) for p in pts]
    assert got == [True, True, False, False]
    assert log.counts == [(1, 1, 0), (1, 0, 1), (1, 0, 1), (1, 0, 1)]
