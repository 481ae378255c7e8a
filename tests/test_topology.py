import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import random_grounded
from platoonkit import (
    ParameterError,
    build_platoon,
    ground,
    make_reference_set,
    md_arrangement,
)


def edge_set(pairs):
    return frozenset(tuple(sorted(p)) for p in pairs)


class TestBuildPlatoon:
    def test_p52_edges_and_degrees(self):
        top = build_platoon(5, 2)
        expected = edge_set([(1, 2), (1, 3), (2, 3), (2, 4), (3, 4), (3, 5), (4, 5)])
        assert top.edges == expected
        assert list(top.degrees()) == [2, 3, 4, 3, 2]

    def test_k1_is_path(self):
        top = build_platoon(3, 1)
        assert top.edges == edge_set([(1, 2), (2, 3)])
        assert list(top.degrees()) == [1, 2, 1]

    def test_k_saturates_to_complete_graph(self):
        top = build_platoon(4, 5)
        assert len(top.edges) == 6
        assert list(top.degrees()) == [3, 3, 3, 3]

    @pytest.mark.parametrize("n,k", [(1, 1), (0, 2), (5, 0), (5, -1)])
    def test_rejects_bad_parameters(self, n, k):
        with pytest.raises(ParameterError):
            build_platoon(n, k)

    @given(
        st.integers(min_value=2, max_value=200),
        st.integers(min_value=1, max_value=12),
    )
    def test_degree_formula_matches_edge_counting(self, n, k):
        top = build_platoon(n, k)
        count = {i: 0 for i in range(1, n + 1)}
        for i, j in top.edges:
            count[i] += 1
            count[j] += 1
        for i in range(1, n + 1):
            assert count[i] == min(i - 1, k) + min(n - i, k)

    @given(
        st.integers(min_value=2, max_value=80),
        st.integers(min_value=1, max_value=8),
    )
    def test_connected(self, n, k):
        top = build_platoon(n, k)
        seen = {1}
        stack = [1]
        while stack:
            for j in top.neighbors(stack.pop()):
                if j not in seen:
                    seen.add(j)
                    stack.append(j)
        assert len(seen) == n

    def test_laplacian_matches_the_edge_list(self):
        # the broadcast |i - j| <= k rule against a Laplacian summed edge by edge
        for n in range(2, 40):
            for k in (1, 2, 3, 5, 8, 13, 21, 44):
                top = build_platoon(n, k)
                lap = np.zeros((n, n), dtype=np.int64)
                for i, j in top.edges:
                    lap[i - 1, j - 1] = lap[j - 1, i - 1] = -1
                    lap[i - 1, i - 1] += 1
                    lap[j - 1, j - 1] += 1
                assert np.array_equal(top.laplacian(), lap)
                assert np.array_equal(np.diag(lap), top.degrees())

    @pytest.mark.parametrize("build", [
        lambda n: build_platoon(n, 1),
        lambda n: md_arrangement(n, 1),
        lambda n: make_reference_set(n, [1]),
    ])
    def test_refuses_a_platoon_too_large_for_memory(self, monkeypatch, build):
        # 5000 vehicles take 0.75 GiB of dense arrays, more than 4 MiB
        monkeypatch.setattr("platoonkit.errors._physical_memory", lambda: 4.0 * 2**20)
        with pytest.raises(ParameterError, match="GiB of buffers"):
            build(5000)
        build(200)

    def test_neighbors(self):
        top = build_platoon(6, 2)
        assert top.neighbors(1) == (2, 3)
        assert top.neighbors(4) == (2, 3, 5, 6)
        with pytest.raises(ParameterError):
            top.neighbors(7)


class TestMdArrangement:
    def test_p36_4(self):
        refset = md_arrangement(36, 4)
        assert refset.refs == (5, 14, 23, 32)

    def test_p5_2(self):
        assert md_arrangement(5, 2).refs == (3,)

    def test_p10_2(self):
        assert md_arrangement(10, 2).refs == (3, 8)

    def test_short_trailing_segment_uses_left_of_center(self):
        # segments [1..3], [4..5]: middle of the length-2 tail is position 4
        assert md_arrangement(5, 1).refs == (2, 4)

    def test_single_vehicle(self):
        assert md_arrangement(1, 1).refs == (1,)

    @given(
        st.integers(min_value=2, max_value=120),
        st.integers(min_value=1, max_value=6),
    )
    def test_count_and_beta_floor(self, n, k):
        refset = md_arrangement(n, k)
        assert len(refset.refs) == -(-n // (2 * k + 1))
        if refset.followers:
            gs = ground(build_platoon(n, k), refset)
            assert gs.betas.min() >= 1


class TestReferenceSet:
    def test_partition(self):
        rs = make_reference_set(6, [4, 2])
        assert rs.refs == (2, 4)
        assert rs.followers == (1, 3, 5, 6)

    @given(
        st.integers(min_value=1, max_value=60),
        st.sets(st.integers(min_value=1, max_value=60), min_size=1),
    )
    def test_partition_invariants(self, n, refs):
        refs = {r for r in refs if r <= n}
        if not refs:
            return
        rs = make_reference_set(n, refs)
        assert set(rs.refs) & set(rs.followers) == set()
        assert sorted(set(rs.refs) | set(rs.followers)) == list(range(1, n + 1))

    def test_rejects_empty_and_out_of_range(self):
        with pytest.raises(ParameterError):
            make_reference_set(5, [])
        with pytest.raises(ParameterError):
            make_reference_set(5, [0])
        with pytest.raises(ParameterError):
            make_reference_set(5, [6])


class TestGround:
    def test_p52_center_reference(self):
        gs = ground(build_platoon(5, 2), make_reference_set(5, [3]))
        expected = np.array(
            [[2, -1, 0, 0], [-1, 3, -1, 0], [0, -1, 3, -1], [0, 0, -1, 2]]
        )
        assert np.array_equal(gs.lg, expected)
        assert np.array_equal(gs.l12.ravel(), [-1, -1, -1, -1])
        assert list(gs.betas) == [1, 1, 1, 1]
        assert gs.boundary_size == 4
        assert gs.dmax_f == 3

    def test_p36_md_every_follower_sees_one_reference(self):
        gs = ground(build_platoon(36, 4), md_arrangement(36, 4))
        assert gs.betas.min() == 1 and gs.betas.max() == 1
        assert gs.boundary_size == 32 == gs.n_followers
        assert gs.dmax_f == 8

    def test_p31_grounded_at_end(self):
        gs = ground(build_platoon(3, 1), make_reference_set(3, [1]))
        assert np.array_equal(gs.lg, [[2, -1], [-1, 1]])
        assert np.array_equal(gs.l12, [[-1], [0]])

    def test_all_references_rejected(self):
        with pytest.raises(ParameterError):
            ground(build_platoon(3, 1), make_reference_set(3, [1, 2, 3]))

    def test_mismatched_n_rejected(self):
        with pytest.raises(ParameterError):
            ground(build_platoon(5, 2), make_reference_set(6, [3]))

    def test_row_sums_and_boundary_on_random_instances(self):
        rng = np.random.default_rng(101)
        for _ in range(500):
            _, _, gs = random_grounded(rng, n_hi=40)
            # integer arithmetic: rows of [lg | l12] sum to exactly 0
            assert gs.lg.dtype.kind == "i" and gs.l12.dtype.kind == "i"
            rows = gs.lg.sum(axis=1) + gs.l12.sum(axis=1)
            assert np.array_equal(rows, np.zeros_like(rows))
            assert gs.betas.sum() == gs.boundary_size

    def test_lg_symmetric(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            _, _, gs = random_grounded(rng, n_hi=30)
            assert np.array_equal(gs.lg, gs.lg.T)
