"""Tests for the torus link model and fault-aware routing.

Covers link enumeration (including the size-1 and size-2 wrap edge
cases), canonical link keys, the mutable ``LinkState``, and the
``RouteTable``'s fall-back from dimension-order to shortest-path over
healthy links — with deterministic tie-breaks and epoch-based cache
invalidation.
"""

import pytest

from repro.errors import TopologyError
from repro.topology import (
    LinkState,
    RouteTable,
    Torus,
    dimension_order_route,
    enumerate_links,
    link_key,
)


def expected_link_count(shape):
    """ndim * N for sizes >= 3; size-2 dims contribute N/2; size-1 none."""
    n = 1
    for s in shape:
        n *= s
    total = 0
    for s in shape:
        if s == 1:
            continue
        total += n if s >= 3 else n // 2
    return total


class TestEnumerateLinks:
    @pytest.mark.parametrize(
        "shape",
        [(4,), (3, 3), (4, 2), (2, 2, 2), (3, 1, 4), (1, 1, 1), (5, 2, 1)],
    )
    def test_counts(self, shape):
        links = enumerate_links(Torus(shape))
        assert len(links) == expected_link_count(shape)

    def test_full_torus_count_is_ndim_n(self):
        # All dims >= 3: exactly ndim * N links.
        torus = Torus((3, 4, 3))
        assert len(enumerate_links(torus)) == 3 * 36

    def test_size_two_dims_not_double_counted(self):
        # In a size-2 dim, +1 and -1 reach the same neighbor: one link.
        torus = Torus((2,))
        links = enumerate_links(torus)
        assert len(links) == 1
        assert links[0].a == (0,) and links[0].b == (1,)

    def test_size_one_dims_produce_no_self_links(self):
        torus = Torus((1, 3))
        for link in enumerate_links(torus):
            assert link.a != link.b
            assert link.dim == 1

    def test_links_are_canonical_and_sorted(self):
        links = enumerate_links(Torus((3, 3)))
        assert all(link.a < link.b for link in links)
        assert list(links) == sorted(links)
        assert len(set(links)) == len(links)

    def test_every_link_joins_neighbors(self):
        torus = Torus((3, 2, 3))
        for link in enumerate_links(torus):
            assert link.b in torus.neighbors(link.a)
            assert link.a in torus.neighbors(link.b)


class TestLinkKey:
    def test_canonical_order(self):
        torus = Torus((4, 4))
        k1 = link_key(torus, (0, 0), (0, 1))
        k2 = link_key(torus, (0, 1), (0, 0))
        assert k1 == k2
        assert k1.a < k1.b

    def test_wrap_link(self):
        torus = Torus((4,))
        link = link_key(torus, (3,), (0,))
        assert (link.a, link.b) == ((0,), (3,))

    def test_self_link_rejected(self):
        with pytest.raises(TopologyError):
            link_key(Torus((4, 4)), (1, 1), (1, 1))

    def test_non_neighbor_rejected(self):
        with pytest.raises(TopologyError):
            link_key(Torus((4, 4)), (0, 0), (0, 2))
        with pytest.raises(TopologyError):
            link_key(Torus((4, 4)), (0, 0), (1, 1))


class TestLinkState:
    def make(self, shape=(4, 4)):
        return Torus(shape), LinkState(Torus(shape))

    def test_kill_and_revive(self):
        torus, ls = self.make()
        assert not ls.is_dead((0, 0), (0, 1))
        ls.kill((0, 0), (0, 1))
        assert ls.is_dead((0, 0), (0, 1))
        assert ls.is_dead((0, 1), (0, 0))  # undirected
        ls.revive((0, 0), (0, 1))
        assert not ls.is_dead((0, 0), (0, 1))

    def test_every_mutation_bumps_epoch(self):
        torus, ls = self.make()
        e0 = ls.epoch
        ls.kill((0, 0), (0, 1))
        e1 = ls.epoch
        ls.degrade((1, 0), (1, 1), 4.0)
        e2 = ls.epoch
        ls.set_lossy((2, 0), (2, 1), 0.5)
        e3 = ls.epoch
        ls.revive((0, 0), (0, 1))
        e4 = ls.epoch
        assert e0 < e1 < e2 < e3 < e4

    def test_degrade_changes_latency_factor(self):
        torus, ls = self.make()
        assert ls.latency_factor((0, 0), (0, 1)) == 1.0
        ls.degrade((0, 0), (0, 1), 8.0)
        assert ls.latency_factor((0, 0), (0, 1)) == 8.0
        ls.revive((0, 0), (0, 1))
        assert ls.latency_factor((0, 0), (0, 1)) == 1.0

    def test_dead_links_listing(self):
        torus, ls = self.make()
        ls.kill((0, 0), (0, 1))
        ls.kill((1, 1), (2, 1))
        dead = ls.dead_links()
        assert len(dead) == 2

    def test_invalid_coords_raise(self):
        torus, ls = self.make()
        with pytest.raises(TopologyError):
            ls.kill((0, 0), (2, 2))


class TestRouteTable:
    def make(self, shape=(4, 4)):
        torus = Torus(shape)
        ls = LinkState(torus)
        return torus, ls, RouteTable(torus, ls)

    def test_healthy_route_is_dimension_order(self):
        torus, ls, rt = self.make()
        for dst in [(1, 0), (0, 3), (2, 2), (3, 3)]:
            assert rt.route((0, 0), dst) == dimension_order_route(
                torus, (0, 0), dst
            )

    def test_healthy_path_length_equals_distance(self):
        torus, ls, rt = self.make((3, 4, 2))
        coords = list(torus.coords())
        for src in coords[:4]:
            for dst in coords:
                path = rt.route(src, dst)
                assert len(path) - 1 == torus.distance(src, dst)

    def test_route_is_deterministic(self):
        torus1, ls1, rt1 = self.make()
        torus2, ls2, rt2 = self.make()
        ls1.kill((0, 0), (0, 1))
        ls2.kill((0, 0), (0, 1))
        for dst in [(0, 1), (2, 3), (3, 0)]:
            assert rt1.route((0, 0), dst) == rt2.route((0, 0), dst)

    def test_reroute_around_dead_link(self):
        torus, ls, rt = self.make()
        direct = rt.route((0, 0), (0, 1))
        assert len(direct) == 2
        ls.kill((0, 0), (0, 1))
        detour = rt.route((0, 0), (0, 1))
        assert detour is not None
        assert detour[0] == (0, 0) and detour[-1] == (0, 1)
        for u, v in zip(detour, detour[1:]):
            assert not ls.is_dead(u, v)
        assert len(detour) > 2

    def test_cache_invalidated_by_epoch(self):
        torus, ls, rt = self.make()
        p1 = rt.route((0, 0), (0, 1))
        assert rt.route((0, 0), (0, 1)) is p1  # cached
        ls.kill((0, 0), (0, 1))
        p2 = rt.route((0, 0), (0, 1))
        assert p2 != p1

    def test_unreachable_returns_none(self):
        # Sever every link of node (0,) in a 1D size-2 ring: 1 link total.
        torus = Torus((2,))
        ls = LinkState(torus)
        rt = RouteTable(torus, ls)
        ls.kill((0,), (1,))
        assert rt.route((0,), (1,)) is None

    def test_isolated_node_in_2d(self):
        torus, ls, rt = self.make((3, 3))
        for nb in torus.neighbors((0, 0)):
            ls.kill((0, 0), nb)
        assert rt.route((1, 1), (0, 0)) is None
        # Other pairs still route.
        assert rt.route((1, 1), (2, 2)) is not None

    def test_src_equals_dst(self):
        torus, ls, rt = self.make()
        assert rt.route((1, 1), (1, 1)) == [(1, 1)]

    def test_suspect_links_detoured_when_alternative_exists(self):
        class View:
            def __init__(self, ls):
                self.ls = ls
                self.soft = set()

            @property
            def epoch(self):
                return self.ls.epoch + len(self.soft)

            def hard_blocked(self, u, v):
                return self.ls.is_dead(u, v)

            def soft_blocked(self, u, v):
                return self.ls.key(u, v) in self.soft

        torus = Torus((4, 4))
        ls = LinkState(torus)
        view = View(ls)
        rt = RouteTable(torus, view)
        direct = rt.route((0, 0), (0, 1))
        view.soft.add(ls.key((0, 0), (0, 1)))
        detour = rt.route((0, 0), (0, 1))
        assert detour != direct and len(detour) > 2
        # Soft-blocked everywhere: the suspect link is still usable.
        for nb in torus.neighbors((0, 0)):
            view.soft.add(ls.key((0, 0), nb))
        fallback = rt.route((0, 0), (0, 1))
        assert fallback is not None
