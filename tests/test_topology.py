"""Unit tests for torus geometry, rank mapping, routing, and partitions."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TopologyError
from repro.topology import (
    KNOWN_PARTITIONS,
    RankMapping,
    Torus,
    abcdet_mapping,
    dimension_order_route,
    partition_shape,
)
from repro.topology.partitions import nodes_for_processes


class TestTorus:
    def test_num_nodes_is_product(self):
        assert Torus((2, 3, 4)).num_nodes == 24

    def test_rejects_empty_dims(self):
        with pytest.raises(TopologyError):
            Torus(())

    def test_rejects_nonpositive_dims(self):
        with pytest.raises(TopologyError):
            Torus((2, 0, 3))

    def test_distance_wraps_around(self):
        t = Torus((8,))
        assert t.distance((0,), (7,)) == 1
        assert t.distance((0,), (4,)) == 4
        assert t.distance((1,), (6,)) == 3

    def test_distance_sums_over_dims(self):
        t = Torus((4, 4))
        assert t.distance((0, 0), (2, 3)) == 2 + 1

    def test_distance_validates_coords(self):
        t = Torus((2, 2))
        with pytest.raises(TopologyError):
            t.distance((0, 0), (0, 2))
        with pytest.raises(TopologyError):
            t.distance((0,), (0, 0))

    def test_paper_partition_diameter_is_7(self):
        """Section IV-B: 128-node 2*2*4*4*2 torus has max distance 7."""
        assert Torus((2, 2, 4, 4, 2)).max_distance() == 7

    def test_coords_enumerates_all_nodes(self):
        t = Torus((2, 3))
        cs = list(t.coords())
        assert len(cs) == 6
        assert len(set(cs)) == 6
        assert cs[0] == (0, 0)
        assert cs[-1] == (1, 2)

    def test_neighbors_counts(self):
        # In a 4x4 torus every node has 4 distinct neighbors.
        t = Torus((4, 4))
        assert len(t.neighbors((1, 2))) == 4
        # Size-2 dims give a single neighbor in that dim (wrap == straight).
        t2 = Torus((2, 4))
        assert len(t2.neighbors((0, 0))) == 3
        # Size-1 dims contribute none.
        t1 = Torus((1, 4))
        assert len(t1.neighbors((0, 0))) == 2

    @given(
        st.tuples(*[st.integers(min_value=1, max_value=5)] * 3),
        st.data(),
    )
    @settings(max_examples=50, deadline=None)
    def test_distance_is_a_metric(self, dims, data):
        t = Torus(dims)
        pick = st.tuples(*[st.integers(0, d - 1) for d in dims])
        a, b, c = data.draw(pick), data.draw(pick), data.draw(pick)
        # Symmetry, identity, triangle inequality.
        assert t.distance(a, b) == t.distance(b, a)
        assert t.distance(a, a) == 0
        assert t.distance(a, c) <= t.distance(a, b) + t.distance(b, c)
        assert t.distance(a, b) <= t.max_distance()


class TestRankMapping:
    def test_abcdet_fills_node_slots_first(self):
        m = abcdet_mapping((2, 2, 4, 4, 2), procs_per_node=16)
        assert m.num_ranks == 2048
        # Ranks 0..15 share node (0,0,0,0,0); T varies fastest.
        for r in range(16):
            coord, slot = m.rank_to_placement(r)
            assert coord == (0, 0, 0, 0, 0)
            assert slot == r
        # Rank 16 moves one step in E (the rightmost torus letter).
        coord, slot = m.rank_to_placement(16)
        assert coord == (0, 0, 0, 0, 1)
        assert slot == 0

    def test_roundtrip_all_ranks_small(self):
        m = RankMapping(Torus((2, 3)), procs_per_node=2, order="ABT")
        seen = set()
        for r in range(m.num_ranks):
            coord, slot = m.rank_to_placement(r)
            assert m.placement_to_rank(coord, slot) == r
            seen.add((coord, slot))
        assert len(seen) == m.num_ranks

    def test_rank_out_of_range(self):
        m = RankMapping(Torus((2, 2)), procs_per_node=1, order="ABT")
        with pytest.raises(TopologyError):
            m.rank_to_placement(4)
        with pytest.raises(TopologyError):
            m.rank_to_placement(-1)

    def test_bad_order_rejected(self):
        with pytest.raises(TopologyError):
            RankMapping(Torus((2, 2)), procs_per_node=1, order="AB")  # no T
        with pytest.raises(TopologyError):
            RankMapping(Torus((2, 2)), procs_per_node=1, order="AAT")

    def test_bad_procs_per_node_rejected(self):
        with pytest.raises(TopologyError):
            RankMapping(Torus((2, 2)), procs_per_node=0, order="ABT")

    def test_same_node_and_hops(self):
        m = abcdet_mapping((2, 2, 4, 4, 2), procs_per_node=16)
        assert m.same_node(0, 15)
        assert not m.same_node(0, 16)
        assert m.hops(0, 5) == 0
        assert m.hops(0, 16) == 1  # adjacent in E

    def test_tedcba_order_varies_a_fastest_after_t(self):
        m = RankMapping(Torus((2, 2, 2, 2, 2)), procs_per_node=1, order="TEDCBA")
        # With T size 1, rank 1 should advance A (rightmost letter).
        coord, _ = m.rank_to_placement(1)
        assert coord == (1, 0, 0, 0, 0)

    def test_abcdet_requires_5d(self):
        with pytest.raises(TopologyError):
            abcdet_mapping((2, 2), procs_per_node=1)  # type: ignore[arg-type]

    @given(st.integers(min_value=0, max_value=2047))
    @settings(max_examples=100, deadline=None)
    def test_roundtrip_paper_partition(self, rank):
        m = abcdet_mapping((2, 2, 4, 4, 2), procs_per_node=16)
        coord, slot = m.rank_to_placement(rank)
        assert m.placement_to_rank(coord, slot) == rank


class TestRouting:
    def test_route_endpoints_and_length(self):
        t = Torus((4, 4))
        path = dimension_order_route(t, (0, 0), (2, 3))
        assert path[0] == (0, 0)
        assert path[-1] == (2, 3)
        assert len(path) == t.distance((0, 0), (2, 3)) + 1

    def test_route_is_dimension_ordered(self):
        t = Torus((4, 4))
        path = dimension_order_route(t, (0, 0), (2, 2))
        # First hops move in dim 0 only, then dim 1 only.
        assert path == [(0, 0), (1, 0), (2, 0), (2, 1), (2, 2)]

    def test_route_takes_shorter_wrap(self):
        t = Torus((8,))
        path = dimension_order_route(t, (0,), (7,))
        assert path == [(0,), (7,)]

    def test_route_to_self_is_single_node(self):
        t = Torus((3, 3))
        assert dimension_order_route(t, (1, 1), (1, 1)) == [(1, 1)]

    def test_each_hop_is_unit_distance(self):
        t = Torus((3, 4, 5))
        path = dimension_order_route(t, (0, 1, 2), (2, 3, 0))
        for a, b in zip(path, path[1:]):
            assert t.distance(a, b) == 1

    @given(
        st.tuples(*[st.integers(min_value=1, max_value=5)] * 4),
        st.data(),
    )
    @settings(max_examples=50, deadline=None)
    def test_route_length_matches_distance(self, dims, data):
        t = Torus(dims)
        pick = st.tuples(*[st.integers(0, d - 1) for d in dims])
        a, b = data.draw(pick), data.draw(pick)
        path = dimension_order_route(t, a, b)
        assert len(path) - 1 == t.distance(a, b)
        assert len(set(path)) == len(path)  # no revisits


class TestPartitions:
    def test_all_known_shapes_have_correct_product(self):
        for nodes, shape in KNOWN_PARTITIONS.items():
            product = 1
            for d in shape:
                product *= d
            assert product == nodes, f"{nodes}: {shape}"

    def test_all_known_shapes_are_5d_with_e_at_most_2(self):
        for shape in KNOWN_PARTITIONS.values():
            assert len(shape) == 5
            assert shape[4] <= 2  # E dimension is 2 wide on hardware

    def test_paper_128_node_shape(self):
        assert partition_shape(128) == (2, 2, 4, 4, 2)

    def test_unknown_size_rejected(self):
        with pytest.raises(TopologyError):
            partition_shape(100)

    def test_nodes_for_processes(self):
        assert nodes_for_processes(2048, 16) == 128
        assert nodes_for_processes(4096, 16) == 256
        assert nodes_for_processes(16, 16) == 1

    def test_nodes_for_processes_uneven_rejected(self):
        with pytest.raises(TopologyError):
            nodes_for_processes(100, 16)

    def test_nodes_for_processes_nonpositive_rejected(self):
        with pytest.raises(TopologyError):
            nodes_for_processes(0, 16)
