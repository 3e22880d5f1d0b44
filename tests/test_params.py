"""Tests for repro.params."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.params import LBParams, ParamError


class TestValidation:
    def test_defaults_valid(self):
        p = LBParams()
        assert p.f == 1.1
        assert p.delta == 1
        assert p.C == 4

    def test_f_below_one_rejected(self):
        with pytest.raises(ParamError):
            LBParams(f=0.9)

    def test_f_at_one_allowed(self):
        assert LBParams(f=1.0).in_provable_domain

    def test_f_at_delta_plus_one_rejected(self):
        with pytest.raises(ParamError):
            LBParams(f=2.0, delta=1)

    def test_f_at_delta_plus_one_allowed_when_not_provable(self):
        p = LBParams(f=2.0, delta=1, require_provable=False)
        assert not p.in_provable_domain

    def test_infinite_f_rejected_outside_the_provable_domain_too(self):
        with pytest.raises(ParamError, match="f must be finite, got inf"):
            LBParams(f=float("inf"), delta=2, C=4, require_provable=False)

    def test_delta_zero_rejected(self):
        with pytest.raises(ParamError):
            LBParams(delta=0)

    def test_delta_non_int_rejected(self):
        with pytest.raises(ParamError):
            LBParams(delta=1.5)  # type: ignore[arg-type]

    def test_negative_C_rejected(self):
        with pytest.raises(ParamError):
            LBParams(C=0)

    def test_network_size_check(self):
        p = LBParams(f=1.1, delta=4)
        with pytest.raises(ParamError):
            p.validate_for_network(4)
        p.validate_for_network(5)

    def test_network_too_small(self):
        with pytest.raises(ParamError):
            LBParams().validate_for_network(1)


class TestDerived:
    def test_fix_limit_upper_formula(self):
        p = LBParams(f=1.5, delta=2)
        assert p.fix_limit_upper == pytest.approx(2 / (3 - 1.5))

    def test_fix_limit_lower_formula(self):
        p = LBParams(f=1.5, delta=2)
        assert p.fix_limit_lower == pytest.approx(2 / (3 - 1 / 1.5))

    def test_fix_limit_upper_out_of_domain(self):
        p = LBParams(f=3.0, delta=1, require_provable=False)
        with pytest.raises(ParamError):
            _ = p.fix_limit_upper

    def test_with_copies(self):
        p = LBParams(f=1.1, delta=1, C=4)
        q = p.with_(C=8)
        assert q.C == 8 and q.f == p.f and p.C == 4

    def test_as_dict(self):
        assert LBParams(f=1.2, delta=3, C=7).as_dict() == {
            "f": 1.2,
            "delta": 3,
            "C": 7,
        }

    @given(
        delta=st.integers(1, 16),
        f=st.floats(1.0, 10.0, exclude_max=True),
    )
    def test_limits_order(self, delta, f):
        """Lower limit <= 1 <= upper limit whenever both exist."""
        if not f < delta + 1:
            return
        p = LBParams(f=f, delta=delta)
        assert p.fix_limit_lower <= 1.0 + 1e-12
        assert p.fix_limit_upper >= 1.0 - 1e-12
        assert p.fix_limit_lower <= p.fix_limit_upper
