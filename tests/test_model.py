"""Unit tests for the LogGP and complexity models (Eqs. 1-9, Tables I/II)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ReproError
from repro.machine import BGQParams
from repro.model import (
    Attributes,
    ComplexityModel,
    LogGPModel,
    TABLE_I_ROWS,
    table_ii_attributes,
)


class TestLogGP:
    def setup_method(self):
        self.model = LogGPModel(o=1e-6, L=0.5e-6, G=1 / 1.775e9)

    def test_eq7_rdma_closed_form(self):
        m = 1024
        expected = 1e-6 + 0.5e-6 + (m - 1) / 1.775e9
        assert self.model.t_rdma(m) == pytest.approx(expected)

    def test_eq9_strided_inverse_in_chunk_size(self):
        m = 1 << 20
        t_small = self.model.t_strided(m, 1024)
        t_large = self.model.t_strided(m, 64 * 1024)
        assert t_small > t_large
        # Chunk-overhead term scales exactly with chunk count.
        assert self.model.t_strided(m, 1024) - m * self.model.G == pytest.approx(
            (m // 1024) * self.model.o
        )

    def test_eq9_contiguous_limit_matches_rdma_asymptote(self):
        """With one chunk, strided cost is o + mG (Eq. 7 minus latency)."""
        m = 1 << 20
        assert self.model.t_strided(m, m) == pytest.approx(self.model.o + m * self.model.G)

    def test_invalid_message_sizes_rejected(self):
        with pytest.raises(ReproError):
            self.model.t_rdma(0)
        with pytest.raises(ReproError):
            self.model.t_strided(1024, 100)  # not a divisor
        with pytest.raises(ReproError):
            self.model.t_strided(1024, 0)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ReproError):
            LogGPModel(o=-1e-6, L=0, G=1e-9)
        with pytest.raises(ReproError):
            LogGPModel(o=0, L=0, G=0)

    @given(
        m_exp=st.integers(4, 20),
        l0_exp=st.integers(0, 20),
    )
    @settings(max_examples=60, deadline=None)
    def test_more_chunks_never_faster(self, m_exp, l0_exp):
        m = 1 << m_exp
        if l0_exp <= m_exp:
            l0 = 1 << l0_exp
            # More chunks can never be faster.
            assert self.model.t_strided(m, l0) >= self.model.t_strided(m, m)


class TestComplexity:
    def test_table_i_has_13_rows_with_unique_symbols(self):
        assert len(TABLE_I_ROWS) == 13
        symbols = [row[2] for row in TABLE_I_ROWS]
        assert len(set(symbols)) == 13

    def test_table_ii_defaults_match_paper(self):
        a = table_ii_attributes()
        assert a.alpha == 4
        assert a.beta == pytest.approx(0.3e-6)
        assert a.gamma == 8
        assert a.delta == pytest.approx(43e-6)
        assert a.rho == 1
        assert a.t_ctx == pytest.approx(3821e-6)

    def test_table_ii_second_context_time(self):
        a = table_ii_attributes(rho=2)
        assert a.t_ctx == pytest.approx(4271e-6)

    def test_eq1_eq2_context_complexity(self):
        model = ComplexityModel(table_ii_attributes(rho=2))
        assert model.context_space() == 2 * BGQParams().context_space
        assert model.context_time() == pytest.approx(2 * 4271e-6)

    def test_eq3_eq4_endpoint_complexity(self):
        model = ComplexityModel(table_ii_attributes(zeta=4096, rho=1))
        assert model.endpoint_space() == 4096 * 4
        assert model.endpoint_time() == pytest.approx(4096 * 0.3e-6)

    def test_eq5_eq6_memregion_complexity(self):
        model = ComplexityModel(table_ii_attributes(zeta=1000, sigma=7, tau=3))
        assert model.memregion_space() == 3 * 8 + 7 * 1000 * 8
        assert model.memregion_time() == pytest.approx((3 + 7) * 43e-6)

    def test_strong_scaling_motivates_region_cache(self):
        """At zeta ~ p = 4096 and sigma = 7, cached regions dominate the
        setup footprint — the paper's argument for a bounded LFU cache."""
        full = ComplexityModel(table_ii_attributes(zeta=4096, sigma=7, tau=3))
        # sigma*zeta*gamma = 7*4096*8 dominates: 14x the endpoint table.
        assert full.memregion_space() > 10 * full.endpoint_space()
        # And it grows linearly with p while tau*gamma stays constant.
        half = ComplexityModel(table_ii_attributes(zeta=2048, sigma=7, tau=3))
        assert full.memregion_space() - full.attrs.tau * full.attrs.gamma == 2 * (
            half.memregion_space() - half.attrs.tau * half.attrs.gamma
        )

    def test_invalid_attributes_rejected(self):
        with pytest.raises(ReproError):
            Attributes(
                alpha=4, beta=0.3e-6, gamma=8, delta=43e-6, epsilon=1024,
                t_ctx=3821e-6, rho=0, zeta=1, sigma=1, tau=1,
            )
        with pytest.raises(ReproError):
            Attributes(
                alpha=4, beta=0.3e-6, gamma=8, delta=43e-6, epsilon=1024,
                t_ctx=3821e-6, rho=1, zeta=-1, sigma=1, tau=1,
            )

    @given(
        zeta=st.integers(0, 10000),
        sigma=st.integers(0, 7),
        tau=st.integers(0, 3),
        rho=st.integers(1, 2),
    )
    @settings(max_examples=60, deadline=None)
    def test_space_monotone_in_every_attribute(self, zeta, sigma, tau, rho):
        base = ComplexityModel(table_ii_attributes(zeta=zeta, sigma=sigma, tau=tau, rho=rho))
        bigger = ComplexityModel(
            table_ii_attributes(zeta=zeta + 1, sigma=sigma + 1, tau=tau + 1, rho=rho)
        )
        for part in ("context", "endpoint", "memregion"):
            for kind in ("space", "time"):
                assert getattr(bigger, f"{part}_{kind}")() >= getattr(base, f"{part}_{kind}")()
